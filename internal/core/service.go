// Package core implements the CloudViews controller — the end-to-end
// runtime of paper §4 and §6 that ties the compiler, optimizer, metadata
// service, executor, and workload repository into one job service.
//
// A submitted job flows exactly as in Figure 6: the compiler fetches the
// annotations relevant to the job from the metadata service (one lookup),
// the optimizer rewrites the plan to reuse available views and/or to
// materialize annotated subgraphs, the executor runs the plan, the job
// manager publishes views the moment they are sealed (early
// materialization), and the finished job's plan and runtime statistics are
// reconciled into the workload repository, closing the feedback loop.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/breaker"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fault"
	"cloudviews/internal/metadata"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

// Config carries the service-wide CloudViews switches. Each is set by a
// caller outside the tests, or is the paper's per-VC deployment setting;
// the breaker, retry and trace-ring settings are fixed (breakerThreshold,
// breakerCooldown, the executor's retry constants, NewObserver).
type Config struct {
	// Enabled turns computation reuse on. Off, every job runs untouched.
	Enabled bool
	// MaxViewsPerJob bounds per-job materializations (§6.2); the paper's
	// production evaluation used 1.
	MaxViewsPerJob int
	// VCEnabled, when non-nil, restricts CloudViews to the listed VCs —
	// the per-VC opt-in of §8. Nil means every VC participates.
	VCEnabled map[string]bool
	// ValidateResults additionally executes the unoptimized plan and
	// verifies the outputs match (the output-validation step of §7.1).
	// Expensive; intended for tests and preview deployments.
	ValidateResults bool
	// LatePublish disables early materialization (§6.4): views are
	// registered with the metadata service only when the producing job
	// completes, and a failed job's partially written views are deleted.
	// Exists for the early-materialization ablation; production keeps
	// early publication on.
	LatePublish bool
	// CacheBytes sizes the storage hot-view cache (decoded partitions
	// served zero-copy to repeat consumers). Zero keeps the store's
	// default budget; negative disables the cache.
	CacheBytes int64
}

// The dependency circuit breakers' fixed settings. A breaker opens after
// breakerThreshold consecutive failures, which is below the executor's
// per-vertex attempt cap (4), so a dead view store opens its breaker
// inside the first consuming job's retry loop and that job degrades to
// its baseline plan instead of failing. An open breaker short-circuits
// for breakerCooldown logical ticks before a half-open probe.
const (
	breakerThreshold = 3
	breakerCooldown  = 60
)

// JobSpec is one job submission.
type JobSpec struct {
	Meta workload.JobMeta
	// Root is the compiled plan. The service never mutates it.
	Root *plan.Node
	// Tags are the metadata-service lookup keys; when empty they default
	// to the plan's inputs plus the template ID.
	Tags []string
	// Deadline is the job's absolute logical-clock deadline. A job whose
	// simulated completion time would pass it fails with a ReasonDeadline
	// JobError. Zero means no deadline.
	Deadline int64
}

// JobResult reports one completed job.
type JobResult struct {
	Spec     JobSpec
	Plan     *plan.Node
	Result   *exec.Result
	Decision *optimizer.Decision
	// BaselineResult is set when Config.ValidateResults is on.
	BaselineResult *exec.Result
	// AnnotationsUsed preserves the annotations the optimizer saw — the
	// "job resource" of §6.2 that makes the job reproducible via Replay.
	AnnotationsUsed []metadata.Annotation
	// StartTime is the simulated submission tick; FinishTime adds the
	// job's simulated latency.
	StartTime, FinishTime int64
}

// Service is the CloudViews-enabled job service.
type Service struct {
	Catalog *catalog.Catalog
	Store   *storage.Store
	Meta    *metadata.Service
	Repo    *workload.Repository
	Clock   *Clock
	Exec    *exec.Executor
	Opt     *optimizer.Optimizer
	Config  Config

	changes  changeTracker
	recovery recoveryCounters
	admit    admission

	// obsv is the installed observability layer (see observe.go); nil
	// after SetObserver(nil).
	obsv *Observer

	// Dependency circuit breakers: metaBreaker guards metadata lookups,
	// storeBreaker guards view-store reads. Both run on the simulated
	// clock.
	metaBreaker  *breaker.Breaker
	storeBreaker *breaker.Breaker
}

// RecoveryStats snapshots the service's fault-recovery and lifecycle
// counters: how many vertex attempts were retried, how many views were
// quarantined after failing integrity/existence checks, how many
// mid-submit replans those quarantines forced, how many jobs skipped
// reuse because the metadata service was unreachable (or its breaker
// open), plus the lifecycle outcomes (shed / deadline / cancelled jobs)
// and the dependency circuit breakers' trip and short-circuit counts.
type RecoveryStats struct {
	VertexRetries    int64
	QuarantinedViews int64
	DegradedReplans  int64
	ReuseSkipped     int64
	// Shed counts jobs rejected by admission control before execution
	// because the service was draining.
	Shed int64
	// DeadlineExceeded counts jobs that failed because their simulated
	// completion time passed their logical-clock deadline.
	DeadlineExceeded int64
	// Cancelled counts jobs stopped by submission-context cancellation.
	Cancelled int64
	// BreakerOpens counts closed→open transitions across the dependency
	// breakers; BreakerShortCircuits counts requests turned away at an
	// open breaker without touching the dependency.
	BreakerOpens         int64
	BreakerShortCircuits int64
}

// recoveryCounters hold the lifecycle and fault-recovery tallies — the one
// place each of those events is counted (always on, unlike the obs
// registry, which SetObserver(nil) removes). Writers always go through
// bump, sharing the RWMutex's read side so unrelated increments stay
// concurrent; Snapshot takes the write side, so a grouped update (e.g.
// quarantined+replans, bumped together for one quarantine event) is never
// observed half-applied — plain atomic loads could tear between the two
// increments and report a replan without its quarantine.
type recoveryCounters struct {
	mu          sync.RWMutex
	retries     atomic.Int64
	quarantined atomic.Int64
	replans     atomic.Int64
	reuseSkip   atomic.Int64
	shed        atomic.Int64
	deadline    atomic.Int64
	cancelled   atomic.Int64
}

// bump applies a group of counter increments atomically with respect to
// Snapshot.
func (r *recoveryCounters) bump(f func()) {
	r.mu.RLock()
	f()
	r.mu.RUnlock()
}

// StorageStats snapshots the storage layer's byte gauges: how many
// encoded view bytes are resident at rest, and what the decoded hot-view
// cache currently holds and has served.
type StorageStats struct {
	// ResidentEncodedBytes is the at-rest footprint of all stored views
	// (columnar payloads, not row representations).
	ResidentEncodedBytes int64
	// Views is the number of stored views.
	Views int
	// Cache reports the decoded hot-view cache: resident entries/bytes
	// plus hit/miss/eviction counters.
	Cache storage.CacheStats
}

// InstallFaults wires one fault injector into every layer of the service:
// executor vertices, the view store, and metadata lookups. Passing nil
// removes the hooks.
func (s *Service) InstallFaults(in *fault.Injector) {
	if in == nil {
		s.Exec.Faults = nil
		s.Store.Faults = nil
		s.Meta.Faults = nil
		return
	}
	s.Exec.Faults = in
	s.Store.Faults = in
	s.Meta.Faults = in
}

// NewService wires a complete in-process job service around a catalog.
// The service owns every view's lifetime: the store only holds files, and
// the service retires a view (BeginInstance expiry, ReclaimStorage,
// quarantine, retraction) metadata first, per §5.4.
func NewService(cat *catalog.Catalog, cfg Config) *Service {
	st := storage.NewStore()
	meta := metadata.NewService()
	if cfg.MaxViewsPerJob == 0 {
		cfg.MaxViewsPerJob = 1
	}
	if cfg.CacheBytes != 0 {
		st.SetCacheBudget(cfg.CacheBytes)
	}
	s := &Service{
		Catalog: cat,
		Store:   st,
		Meta:    meta,
		Repo:    workload.NewRepository(),
		Clock:   &Clock{},
		Exec:    &exec.Executor{Catalog: cat, Store: st},
		Opt: &optimizer.Optimizer{
			Meta:                 meta,
			Est:                  &optimizer.Estimator{Catalog: cat},
			MaxMaterializePerJob: cfg.MaxViewsPerJob,
		},
		Config: cfg,
	}
	s.admit.cond = sync.NewCond(&s.admit.mu)
	s.metaBreaker = breaker.New("metadata", breakerThreshold, breakerCooldown)
	s.storeBreaker = breaker.New("viewstore", breakerThreshold, breakerCooldown)
	// View-store reads flow through the store's admission gate: an open
	// breaker short-circuits the read with OpenError (which the replan
	// loop degrades around), and every real read outcome feeds the
	// breaker.
	st.Gate = func(string) error {
		if !s.storeBreaker.Allow(s.Clock.Now()) {
			return &breaker.OpenError{Dep: "viewstore"}
		}
		return nil
	}
	st.OnConsume = func(_ string, err error) {
		s.storeBreaker.Observe(s.Clock.Now(), err == nil)
	}
	// Observability is on by default: metrics and tracing at the default
	// trace capacity. SetObserver replaces it (NewObserver(-1) keeps
	// metrics without tracing); SetObserver(nil) strips every hook.
	s.SetObserver(NewObserver(0))
	return s
}

// vcEnabled reports whether CloudViews applies to the job's VC.
func (s *Service) vcEnabled(vc string) bool {
	if !s.Config.Enabled {
		return false
	}
	if s.Config.VCEnabled == nil {
		return true
	}
	return s.Config.VCEnabled[vc]
}

// defaultTags derives the metadata lookup tags from the job: its inputs
// (normalized names) and its recurring template ID (§6.1).
func defaultTags(spec JobSpec) []string {
	tags := append([]string(nil), spec.Tags...)
	if len(tags) == 0 {
		tags = plan.Inputs(spec.Root)
		if spec.Meta.TemplateID != "" {
			tags = append(tags, spec.Meta.TemplateID)
		}
	}
	return tags
}

// Run submits one job through the full CloudViews pipeline under the
// caller's context and records it in the workload repository. User plans
// are never mutated — optimization operates on an internal clone
// (transparency, §4). Cancelling ctx stops the job at the next vertex or
// chunk boundary, releases its build locks, retracts any views it
// published, and returns a ReasonCancelled JobError.
func (s *Service) Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return s.submitAt(ctx, spec, s.Clock.Now())
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Concurrency bounds how many jobs of the batch run simultaneously;
	// values ≤ 1 select one worker per CPU.
	Concurrency int
}

// RunBatch submits a batch of jobs with up to opts.Concurrency in
// flight, returning results in submission order. This is the paper's
// operating regime — tens of thousands of concurrent jobs per cluster
// (§2.1) — where build-build and build-consume coordination (§6.5) is
// real: in-flight jobs arbitrate materialization through the metadata
// service's locks, and a view sealed early (§6.4) is visible to every
// other job in the batch immediately.
//
// All jobs share one submission timestamp (the clock at batch start),
// modeling a concurrent arrival wave: deadlines and lock TTLs see the
// jobs as simultaneous, so a batch job cannot steal a build lock
// another batch job still holds. Outputs are deterministic; which job
// wins a build lock (and therefore pays materialization cost) depends on
// scheduling, exactly as with concurrent submitters in production.
//
// Specs may share subtrees (or whole plans) with each other and with the
// caller: no job writes to the nodes of a plan it runs.
// Cancelling ctx stops every job still in flight. Per-job failures are
// aggregated with errors.Join — results keeps its per-index entries, and
// each joined error is wrapped with the batch index and job ID.
func (s *Service) RunBatch(ctx context.Context, specs []JobSpec, opts BatchOptions) ([]*JobResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	concurrency := batchConcurrency(opts.Concurrency)
	now := s.Clock.Now()
	results := make([]*JobResult, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.submitAt(ctx, specs[i], now)
		}(i)
	}
	wg.Wait()
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("core: batch job %d (%s): %w", i, specs[i].Meta.JobID, err))
		}
	}
	return results, errors.Join(joined...)
}

// batchConcurrency resolves the batch concurrency option: ≤ 1 means one
// worker per CPU (a single caller-managed worker is what Run is for).
func batchConcurrency(c int) int {
	if c <= 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c
}

// submitAt is the observability shell around submitJob, shared by the
// serial and batched paths: it counts the submission, opens the job's
// trace, runs the pipeline, then stamps the outcome (completed/failed
// counters, latency histogram, root-span attributes) and publishes the
// finished trace. Shed / cancelled / deadline outcomes are counted where
// they are classified (lifecycleError), not again here.
func (s *Service) submitAt(ctx context.Context, spec JobSpec, now int64) (*JobResult, error) {
	o := s.obsv
	if o != nil {
		o.jobsSubmitted.Inc()
	}
	tb := s.beginTrace(spec, now)
	jr, err := s.submitJob(ctx, spec, now, tb)
	end := float64(now)
	if err == nil {
		end = float64(jr.FinishTime)
		if o != nil {
			o.jobsCompleted.Inc()
			o.jobLatency.Observe(jr.FinishTime - jr.StartTime)
		}
	} else if o != nil {
		o.jobsFailed.Inc()
	}
	tb.finish(end, err)
	return jr, err
}

// submitJob runs the lifecycle gauntlet in order: admission (the
// draining latch), then the breaker-gated planning and recovering
// execution pipeline. Every lifecycle failure comes back as a typed
// *JobError. tb may be nil (tracing off).
func (s *Service) submitJob(ctx context.Context, spec JobSpec, now int64, tb *traceBuilder) (*JobResult, error) {
	jobID := spec.Meta.JobID
	if err := s.admit.enter(); err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	defer s.admit.exit()
	if err := ctx.Err(); err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	tb.span("admission", float64(now), float64(now))

	jr := &JobResult{Spec: spec, Plan: spec.Root, Decision: &optimizer.Decision{}}

	if s.vcEnabled(spec.Meta.VC) {
		s.planWithReuse(jr, spec, now, tb, 0)
	}

	res, err := s.executeRecovering(ctx, jr, spec, now, tb)
	if err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	jr.Result = res
	s.recovery.bump(func() { s.recovery.retries.Add(int64(res.Retries)) })

	jr.StartTime = now
	jr.FinishTime = now + int64(res.Latency)
	// The simulated clock moves with completed work, so build-lock TTLs
	// (mined average runtimes, §6.1) expire on a meaningful timeline.
	s.Clock.AdvanceTo(jr.FinishTime + 1)

	// Close the feedback loop.
	s.Repo.Record(spec.Meta, jr.Plan, res)

	if s.Config.ValidateResults {
		base, berr := s.runBaseline(spec)
		if berr != nil {
			return nil, fmt.Errorf("core: baseline validation run failed: %w", berr)
		}
		jr.BaselineResult = base
		if err := outputsEqual(base, res); err != nil {
			return nil, fmt.Errorf("core: reuse changed results for job %s: %w", spec.Meta.JobID, err)
		}
	}
	return jr, nil
}

// planWithReuse performs the metadata lookup and reuse optimization for
// one submission attempt, implementing the first rung of the degradation
// ladder: when the metadata service is unreachable, the job simply keeps
// its original plan — reuse skipped, counted, never fatal (reuse is an
// optimization, never a dependency). Both dependency breakers gate the attempt: an open
// view-store breaker makes selecting views pointless (reads would only
// short-circuit), and an open metadata breaker skips the lookup without
// touching the unhealthy service at all.
// pass is the planning-pass number: 0 for the initial optimization, ≥ 1
// for quarantine- or breaker-forced replans (stamped on the optimize
// span, and the lookup child is named "re-match" instead of "match").
func (s *Service) planWithReuse(jr *JobResult, spec JobSpec, now int64, tb *traceBuilder, pass int) {
	tick := float64(now)
	opt := tb.span("optimize", tick, tick)
	matchName := "match"
	if pass > 0 {
		opt.Set("replan", itoa(pass))
		matchName = "re-match"
	}
	// degrade keeps the job on its original plan: reuse skipped, counted
	// (once, here; Snapshot publishes it to the registry too), never fatal.
	degrade := func(why string, dec *optimizer.Decision) {
		s.recovery.bump(func() { s.recovery.reuseSkip.Add(1) })
		opt.Set("decision", "skip-reuse")
		opt.Set("reason", why)
		jr.Plan, jr.Decision, jr.AnnotationsUsed = spec.Root, dec, nil
	}
	if b := s.storeBreaker; !b.Ready(now) {
		degrade("breaker-open:"+b.Name(), &optimizer.Decision{BreakerOpen: b.Name()})
		return
	}
	if b := s.metaBreaker; !b.Allow(now) {
		degrade("breaker-open:"+b.Name(), &optimizer.Decision{MetaUnavailable: true, BreakerOpen: b.Name()})
		return
	}
	anns, err := s.Meta.TryRelevantViews(spec.Meta.VC, defaultTags(spec))
	s.metaBreaker.Observe(now, err == nil)
	if err != nil {
		opt.Child(matchName, tick, tick, obs.A("error", "lookup-failed"))
		degrade("metadata-unavailable", &optimizer.Decision{MetaUnavailable: true})
		return
	}
	opt.Child(matchName, tick, tick, obs.A("annotations", itoa(len(anns))))
	jr.AnnotationsUsed = annotationsSnapshot(anns)
	jr.Plan, jr.Decision = s.Opt.Optimize(spec.Root, spec.Meta.JobID, anns, now)
	if opt != nil {
		dec := jr.Decision
		opt.Set("views_used", itoa(len(dec.ViewsUsed)))
		opt.Set("views_built", itoa(len(dec.ViewsBuilt)))
		opt.Set("views_rejected", itoa(len(dec.ViewsRejected)))
		opt.Set("est_cost", ftoa(dec.EstimatedCost))
		for _, v := range dec.ViewsUsed {
			opt.Child("inject", tick, tick,
				obs.A("kind", "scan"), obs.A("sig", v.PreciseSig), obs.A("path", v.Path))
		}
		for _, b := range dec.ViewsBuilt {
			opt.Child("inject", tick, tick,
				obs.A("kind", "build"), obs.A("sig", b.PreciseSig), obs.A("path", b.Path))
		}
	}
}

// maxReplans bounds the quarantine-and-replan loop. Each round removes one
// broken view from the metadata service, so the loop strictly shrinks the
// reusable set; the bound only guards against pathological plans.
const maxReplans = 4

// executeRecovering is the second rung of the degradation ladder: a job
// whose optimized plan trips over a corrupt or vanished view does not
// fail — the view is quarantined (deregistered from metadata, deleted from
// storage) and the job is transparently re-optimized from its pristine
// plan, which can no longer select the quarantined view. Transient vertex
// failures never reach this level (the executor's retry loop absorbs
// them); permanent non-view failures propagate unchanged.
func (s *Service) executeRecovering(ctx context.Context, jr *JobResult, spec JobSpec, now int64, tb *traceBuilder) (*exec.Result, error) {
	var quarantined []string
	for replan := 0; ; replan++ {
		res, err := s.execute(ctx, jr.Plan, spec, jr.Decision, now, spec.Deadline, tb, replan)
		if err == nil {
			jr.Decision.QuarantinedViews = quarantined
			return res, nil
		}
		// A view read short-circuited by the store's open breaker is not a
		// broken view — the dependency is unhealthy, not the payload. Replan
		// without quarantining: planWithReuse sees the open breaker and
		// degrades the job to its baseline plan.
		var oe *breaker.OpenError
		if errors.As(err, &oe) {
			if replan >= maxReplans || !s.vcEnabled(spec.Meta.VC) {
				return nil, err
			}
			s.recovery.bump(func() { s.recovery.replans.Add(1) })
			s.planWithReuse(jr, spec, now, tb, replan+1)
			continue
		}
		sig, path, ok := viewFailure(err, jr.Decision)
		if !ok || replan >= maxReplans || !s.vcEnabled(spec.Meta.VC) {
			return nil, err
		}
		s.retire(sig, path) // quarantine
		quarantined = append(quarantined, path)
		// One grouped bump per quarantine event: a Snapshot never sees the
		// replan without its quarantine.
		s.recovery.bump(func() {
			s.recovery.quarantined.Add(1)
			s.recovery.replans.Add(1)
		})
		s.planWithReuse(jr, spec, now, tb, replan+1)
	}
}

// retire removes a view from the service in the §5.4 order: the metadata
// registration goes first, so no new job selects the view, then the file
// and its cache entry. A consumer that raced the retirement finds the view
// missing and degrades through the quarantine path; none finds a
// registration whose file is gone. Every view the service drops while it
// is registered (quarantine, retraction, reclamation) goes through here.
func (s *Service) retire(preciseSig, path string) {
	s.Meta.Unregister(preciseSig)
	s.Store.Delete(path)
}

// viewFailure classifies an execution error as a recoverable view problem,
// returning the precise signature and path to quarantine. Corrupt views
// carry their own identity; a vanished view is recovered through the
// decision's used-view list (an arbitrary missing path — e.g. a user plan
// scanning a dead view directly — is not recoverable by replanning).
func viewFailure(err error, dec *optimizer.Decision) (sig, path string, ok bool) {
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		return ce.PreciseSig, ce.Path, true
	}
	var nf *storage.NotFoundError
	if errors.As(err, &nf) {
		for _, v := range dec.ViewsUsed {
			if v.Path == nf.Path {
				return v.PreciseSig, v.Path, true
			}
		}
	}
	return "", "", false
}

// execute runs the plan with the early-materialization hook wired: each
// view is published to the metadata service the instant its files seal,
// and build locks for views that never sealed are released on failure.
// A job stopped by cancellation or a deadline additionally retracts the
// views it already published — a job that did not finish leaves nothing
// behind.
func (s *Service) execute(ctx context.Context, root *plan.Node, spec JobSpec, dec *optimizer.Decision, now, deadline int64, tb *traceBuilder, attempt int) (*exec.Result, error) {
	intents := map[string]optimizer.BuildIntent{}
	for _, b := range dec.ViewsBuilt {
		intents[b.PreciseSig] = b
	}
	// The executor calls the hook on this goroutine, in the walk's
	// post-order. sealed maps precise signature → view path so lifecycle
	// retraction can reach the file.
	sealed := map[string]string{}
	var pending []metadata.ViewInfo

	ex := *s.Exec // copy so per-job hooks don't race across submissions
	// Per-attempt vertex hook: metrics flow immediately; when the job is
	// traced the events are buffered and attached below, only if this
	// attempt succeeds (see vertexCollector).
	var col *vertexCollector
	if o := s.obsv; o != nil {
		col = &vertexCollector{o: o, buffer: tb != nil}
		ex.Obs = col
	}
	ex.OnViewMaterialized = func(v *storage.View) {
		intent, ok := intents[v.PreciseSig]
		if !ok {
			return
		}
		// Stamp the absolute expiry (instance units) into the file.
		v.ExpiresAt = spec.Meta.Instance + intent.ExpiryDelta
		info := metadata.ViewInfo{
			PreciseSig: v.PreciseSig,
			NormSig:    v.NormSig,
			Path:       v.Path,
			Schema:     v.Schema,
			Props:      v.Props,
			Rows:       v.Rows,
			// Bytes is the logical (row-representation) size the cost model
			// prices a view scan on; EncodedBytes is the smaller at-rest
			// columnar footprint storage actually holds.
			Bytes:         v.LogicalBytes,
			EncodedBytes:  v.Bytes,
			ProducerJobID: spec.Meta.JobID,
			ExpiresAt:     v.ExpiresAt,
		}
		if s.Config.LatePublish {
			// Ablation mode: hold publication until the job completes.
			pending = append(pending, info)
			return
		}
		// Early materialization (§6.4): consumers may use the view while
		// this job is still running.
		s.Meta.ReportMaterialized(info)
		s.changes.recordBuild()
		sealed[v.PreciseSig] = v.Path
	}

	res, err := ex.RunCtx(ctx, root, spec.Meta.JobID, now, deadline)
	if err != nil {
		// Early mode: views already sealed survive (checkpoint
		// semantics); locks for unsealed views are released so another
		// job can build them. Late mode: unpublished files are deleted
		// too — the job is atomic, nothing survives.
		for _, p := range pending {
			s.Store.Delete(p.Path)
		}
		for sig := range intents {
			if _, ok := sealed[sig]; !ok {
				s.Meta.AbortMaterialize(sig, spec.Meta.JobID)
			}
		}
		// A cancelled or deadline-failed job is not a checkpoint — it must
		// leave nothing published. Retire early-published views too, so
		// an in-flight consumer degrades via the quarantine path instead
		// of reading a dangling registration.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			for sig, path := range sealed {
				s.retire(sig, path)
			}
			tick := float64(now)
			for _, path := range sortedPaths(sealed) {
				tb.span("retract", tick, tick, obs.A("path", path))
			}
		}
		// A failed attempt gets an outcome-only execute span: its buffered
		// vertex events are discarded, so a trace never shows part of a
		// failed walk.
		tb.span("execute", float64(now), float64(now),
			obs.A("attempt", itoa(attempt)), obs.A("error", errClass(err)))
		return nil, err
	}
	for _, p := range pending {
		s.Meta.ReportMaterialized(p)
		s.changes.recordBuild()
		sealed[p.PreciseSig] = p.Path
	}
	if len(sealed) < len(intents) {
		// An intended view never sealed: this job's Materialize lost the
		// first-writer-wins race to a builder that took over its expired
		// lock. Release any lock still held and keep only the views this
		// job actually published in its decision.
		kept := dec.ViewsBuilt[:0]
		for _, b := range dec.ViewsBuilt {
			if _, ok := sealed[b.PreciseSig]; ok {
				kept = append(kept, b)
			} else {
				s.Meta.AbortMaterialize(b.PreciseSig, spec.Meta.JobID)
			}
		}
		dec.ViewsBuilt = kept
	}
	if tb != nil && col != nil {
		// Every quantity below is simulated (ticks, rows, simulated CPU),
		// so the span tree is identical in every run of the same job.
		exSpan := tb.span("execute", float64(now), float64(now)+res.Latency,
			obs.A("attempt", itoa(attempt)))
		matEnd := map[string]float64{}
		for _, ev := range col.events {
			sp := exSpan.Child(ev.Kind, ev.Start, ev.End,
				obs.A("site", ev.Site), obs.A("rows", itoa64(ev.Rows)),
				obs.A("bytes", itoa64(ev.Bytes)), obs.A("cpu", ftoa(ev.CPU)))
			if ev.Attempts > 1 {
				sp.Set("attempts", itoa(ev.Attempts))
				sp.Set("retry_wait", ftoa(ev.RetryWait))
			}
			if ev.FaultDelay > 0 {
				sp.Set("fault_delay", ftoa(ev.FaultDelay))
			}
			switch {
			case ev.Cache != "": // view scan: decode (verify included) or cache hit
				sp.Child("storage.decode", ev.Start, ev.End,
					obs.A("path", ev.ViewPath), obs.A("cache", ev.Cache))
			case ev.ViewPath != "": // materialize: columnar encode
				sp.Child("storage.encode", ev.Start, ev.End, obs.A("path", ev.ViewPath))
				matEnd[ev.ViewPath] = ev.End
			}
		}
		// Publication spans: one per sealed view, at the tick its encode
		// finished (early materialization) or the job's end (late mode).
		jobEnd := float64(now) + res.Latency
		for _, path := range sortedPaths(sealed) {
			at := jobEnd
			if t, ok := matEnd[path]; ok {
				at = t
			}
			tb.span("publish", at, at, obs.A("path", path))
		}
	}
	return res, nil
}

// runBaseline executes the unoptimized plan against a scratch view store
// so validation can never interfere with real materializations; the job
// it checks has already completed, so it runs outside that job's lifecycle.
func (s *Service) runBaseline(spec JobSpec) (*exec.Result, error) {
	ex := exec.Executor{Catalog: s.Catalog, Store: storage.NewStore()}
	return ex.RunCtx(context.Background(), plan.Clone(spec.Root), spec.Meta.JobID+"-baseline", s.Clock.Now(), 0)
}

func outputsEqual(a, b *exec.Result) error {
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("output sink count %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for name, rows := range a.Outputs {
		other, ok := b.Outputs[name]
		if !ok {
			return fmt.Errorf("missing output %q", name)
		}
		if !data.RowsEqual(rows, other) {
			return fmt.Errorf("output %q differs", name)
		}
	}
	return nil
}

// RunAnalyzer executes the CloudViews analyzer over the workload
// repository and installs the resulting annotations into the metadata
// service — one bulk swap either way. An unscoped run replaces the whole
// annotation set (LoadAnalysis); a scoped run (cluster/BU/VC filters) saw
// only its slice of the workload, so its output is merged with SaveAll
// rather than clobbering the annotations other scopes are serving. It
// returns the analysis for reporting.
func (s *Service) RunAnalyzer(cfg analyzer.Config) *analyzer.Analysis {
	a := analyzer.New(s.Repo)
	if s.obsv != nil {
		a.Obs = s.obsv
	}
	an := a.Analyze(cfg)
	if len(cfg.Clusters)+len(cfg.BusinessUnits)+len(cfg.VCs) > 0 {
		s.Meta.SaveAll(an.Annotations)
	} else {
		s.Meta.LoadAnalysis(an.Annotations)
	}
	return an
}

// RunOfflinePhase pre-materializes the offline-annotated subgraphs of a
// job ahead of the workload (§6.2's offline mode for tenants with slack).
// It returns the number of views built. A failed metadata lookup is
// returned, not degraded around: an admin call has no baseline plan to
// fall back to.
func (s *Service) RunOfflinePhase(spec JobSpec) (int, error) {
	if !s.vcEnabled(spec.Meta.VC) {
		return 0, nil
	}
	now := s.Clock.Now()
	anns, err := s.Meta.TryRelevantViews(spec.Meta.VC, defaultTags(spec))
	if err != nil {
		return 0, fmt.Errorf("core: offline phase for job %s: %w", spec.Meta.JobID, err)
	}
	plans, intents := s.Opt.OfflineViewPlans(spec.Root, spec.Meta.JobID, anns, now)
	built := 0
	for i, p := range plans {
		dec := &optimizer.Decision{ViewsBuilt: []optimizer.BuildIntent{intents[i]}}
		if _, err := s.execute(context.Background(), p, spec, dec, now, 0, nil, 0); err != nil {
			return built, err
		}
		built++
	}
	return built, nil
}

// BeginInstance advances the service to recurring instance i: expired view
// registrations are purged from the metadata service first, then the
// physical files are deleted — the §5.4 ordering that keeps in-flight
// consumers safe.
func (s *Service) BeginInstance(i int64) {
	s.changes.roll()
	for _, path := range s.Meta.PurgeExpired(i) {
		s.Store.Delete(path)
	}
	// Views that never made it into the metadata service (crashed
	// builders) are reclaimed straight from storage.
	for _, v := range s.Store.Views() {
		if v.ExpiresAt <= i {
			if _, ok := s.Meta.LookupView(v.PreciseSig); !ok {
				s.Store.Delete(v.Path)
			}
		}
	}
}
