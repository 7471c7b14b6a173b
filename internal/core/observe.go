// observe.go wires the deterministic observability layer (internal/obs)
// into the service: the Observer, the per-job trace builder, the single
// versioned stats view Snapshot, and per-job trace export via Trace.
//
// One Observer implements every layer's observability hook (executor
// vertices, view-store reads and writes, metadata lookups, analyzer runs)
// — the same one-object-implements-all-seams shape as fault.Injector. It
// counts only events no component counts itself; Snapshot names those
// counters and the owners' (cache, metadata, breakers, recovery) in one
// table. Traces are assembled per job by the submitting goroutine from
// simulated quantities only, so a fixed-seed run exports byte-identical
// trace JSON every time.
package core

import (
	"context"
	"errors"
	"sort"
	"strconv"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/breaker"
	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/obs"
	"cloudviews/internal/storage"
)

// Observer owns the service's job-level instruments and trace store and
// implements every layer's observability hook. One Observer serves one
// Service; NewService installs one by default, SetObserver(nil) removes
// it (the measured no-op baseline). Snapshot names each instrument.
type Observer struct {
	traces *obs.TraceStore // nil = tracing disabled (metrics stay on)

	jobsSubmitted, jobsCompleted, jobsFailed obs.Counter
	jobLatency                               obs.Histogram
	vertices, vertexRetries                  obs.Counter
	retryWait                                obs.Histogram
	consumeErrors                            obs.Counter
	viewsWritten, encodedWritten             obs.Counter
	metaLookupErrors, metaAnnotations        obs.Counter
	analyzerRuns, analyzerCandidates         obs.Counter
	analyzerSelected                         obs.Counter
}

// Compile-time proof the Observer satisfies every layer's hook seam.
var (
	_ exec.ObsHook     = (*Observer)(nil)
	_ storage.ObsHook  = (*Observer)(nil)
	_ metadata.ObsHook = (*Observer)(nil)
	_ analyzer.ObsHook = (*Observer)(nil)
)

// NewObserver builds an observer. traceCapacity sizes the per-job trace
// ring: 0 selects obs.DefaultTraceCapacity, negative disables tracing
// entirely (metrics remain live) — the same zero-default / negative-off
// convention as Config.CacheBytes.
func NewObserver(traceCapacity int) *Observer {
	o := &Observer{}
	if traceCapacity >= 0 {
		o.traces = obs.NewTraceStore(traceCapacity)
	}
	return o
}

// vertexMetrics feeds the executor counters for one completed vertex.
func (o *Observer) vertexMetrics(ev exec.VertexEvent) {
	o.vertices.Inc()
	if r := ev.Attempts - 1; r > 0 {
		o.vertexRetries.Add(int64(r))
		o.retryWait.Observe(int64(ev.RetryWait))
	}
}

// VertexDone implements exec.ObsHook (metrics only; per-job tracing uses
// a vertexCollector installed by execute).
func (o *Observer) VertexDone(_ string, ev exec.VertexEvent) { o.vertexMetrics(ev) }

// ViewConsumed implements storage.ObsHook. Hits and misses are the
// store's own CacheStats.
func (o *Observer) ViewConsumed(_ string, err error) {
	if err != nil {
		o.consumeErrors.Inc()
	}
}

// ViewWritten implements storage.ObsHook.
func (o *Observer) ViewWritten(_ string, encodedBytes int64, _ bool) {
	o.viewsWritten.Inc()
	o.encodedWritten.Add(encodedBytes)
}

// LookupDone implements metadata.ObsHook. Successful lookups are the
// metadata service's own count; the Observer counts the failed ones.
func (o *Observer) LookupDone(_ string, annotations int, err error) {
	if err != nil {
		o.metaLookupErrors.Inc()
		return
	}
	o.metaAnnotations.Add(int64(annotations))
}

// AnalyzeDone implements analyzer.ObsHook.
func (o *Observer) AnalyzeDone(_, _, candidates, selected int) {
	o.analyzerRuns.Inc()
	o.analyzerCandidates.Add(int64(candidates))
	o.analyzerSelected.Add(int64(selected))
}

// vertexCollector is the per-execution-attempt executor hook: it feeds
// vertex metrics immediately and, when the job is traced, buffers the
// events for the submitting goroutine to attach under the attempt's
// execute span once the walk returns. The executor calls it on the
// submitting goroutine, in the walk's post-order. Events buffered by a
// failed attempt are discarded — the executor stops at the first error —
// so only successful attempts carry vertex children.
type vertexCollector struct {
	o      *Observer
	buffer bool
	events []exec.VertexEvent
}

func (c *vertexCollector) VertexDone(_ string, ev exec.VertexEvent) {
	c.o.vertexMetrics(ev)
	if c.buffer {
		c.events = append(c.events, ev)
	}
}

// traceBuilder assembles one job's span tree on the submitting
// goroutine. A nil *traceBuilder (observer absent or tracing disabled)
// is fully operational as a no-op: span returns a nil *obs.Span, whose
// Set/Child are themselves nil-safe, so the instrumented pipeline never
// branches on whether tracing is on.
type traceBuilder struct {
	o     *Observer
	trace *obs.Trace
	root  *obs.Span
}

// beginTrace opens a job trace rooted at a "submit" span, or returns nil
// when tracing is off.
func (s *Service) beginTrace(spec JobSpec, now int64) *traceBuilder {
	o := s.obsv
	if o == nil || o.traces == nil {
		return nil
	}
	root := &obs.Span{Name: "submit", Start: float64(now), End: float64(now)}
	if spec.Meta.VC != "" {
		root.Set("vc", spec.Meta.VC)
	}
	return &traceBuilder{o: o, trace: &obs.Trace{JobID: spec.Meta.JobID, Root: root}, root: root}
}

// span adds a direct child of the root span.
func (t *traceBuilder) span(name string, start, end float64, attrs ...obs.Attr) *obs.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name, start, end, attrs...)
}

// finish stamps the root span's end and outcome and publishes the trace.
func (t *traceBuilder) finish(end float64, err error) {
	if t == nil {
		return
	}
	t.root.End = end
	t.root.Set("outcome", outcomeOf(err))
	t.o.traces.Put(t.trace)
}

// outcomeOf renders a submission outcome as a stable attribute value.
func outcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	var je *JobError
	if errors.As(err, &je) {
		return je.Reason.String()
	}
	return "error"
}

// errClass coarsely classifies an execution error for trace attributes;
// the classes are stable strings so traces stay comparable across runs.
func errClass(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	var (
		oe *breaker.OpenError
		ce *storage.CorruptError
		nf *storage.NotFoundError
	)
	switch {
	case errors.As(err, &oe):
		return "breaker-open"
	case errors.As(err, &ce):
		return "corrupt-view"
	case errors.As(err, &nf):
		return "missing-view"
	}
	return "error"
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SetObserver replaces the service's observability layer, wiring o's
// hooks into the executor, view store and metadata service (the analyzer
// picks it up per run). Passing nil removes every hook — the no-op
// baseline the overhead benchmarks measure. Like InstallFaults, call it
// before submissions begin; hooks are read without synchronization.
func (s *Service) SetObserver(o *Observer) {
	s.obsv = o
	var (
		execHook  exec.ObsHook
		storeHook storage.ObsHook
		metaHook  metadata.ObsHook
	)
	if o != nil {
		execHook, storeHook, metaHook = o, o, o
	}
	s.Exec.Obs = execHook
	s.Store.Obs = storeHook
	s.Meta.Obs = metaHook
}

// Trace returns the retained trace for jobID. The second result is false
// when the job was never traced or its trace has been evicted. Callers
// must treat the trace as immutable; Trace.JSON renders it as stable
// order-normalized bytes.
func (s *Service) Trace(jobID string) (*obs.Trace, bool) {
	o := s.obsv
	if o == nil || o.traces == nil {
		return nil, false
	}
	return o.traces.Get(jobID)
}

// StatsSchemaVersion identifies the ServiceStats layout; consumers that
// persist snapshots can detect layout changes across releases.
const StatsSchemaVersion = 3

// SchedulerStats is the admission-side slice of a snapshot.
type SchedulerStats struct {
	// InFlight is how many submissions are currently executing.
	InFlight int
	// Draining reports whether Drain has latched the service shut.
	Draining bool
}

// BreakerStats is one dependency breaker's counters at snapshot time.
type BreakerStats struct {
	Dep            string
	State          string
	Opens          int64
	ShortCircuits  int64
	Probes         int64
	ProbeSuccesses int64
	ProbeFailures  int64
}

// ServiceStats is the unified stats surface: one versioned value holding
// every subsystem's counters. Snapshot is the only read.
type ServiceStats struct {
	// SchemaVersion is StatsSchemaVersion at build time.
	SchemaVersion int
	Recovery      RecoveryStats
	Storage       StorageStats
	Scheduler     SchedulerStats
	Breakers      []BreakerStats
	// AnalysisStale reports whether the loaded analysis looks outdated:
	// the metadata service advertises annotations, but the last completed
	// recurring instance materialized fewer than half of them. True is the
	// signal to rerun the analyzer (§6.2).
	AnalysisStale bool
	// ViewsBuiltLastInstance is how many views the last completed
	// recurring instance materialized.
	ViewsBuiltLastInstance int
	// Metrics names every counter and histogram (see Snapshot); empty
	// when no observer is installed.
	Metrics obs.MetricsSnapshot
}

// Snapshot returns a consistent point-in-time view of the whole service.
// Safe to call concurrently with submissions: every subsystem is read
// through its own synchronized snapshot path (the recovery counters under
// their write lock, so no grouped update is seen half-applied).
//
// Each event is counted once, by the component that sees it; Metrics is
// the one table that names every count, filled only when an observer is
// installed. Names whose owner is a component (cache, metadata, breakers,
// recovery) read that component's counter, so they count from service
// start and agree with the rest of the snapshot; the Observer's own
// instruments count from its installation.
func (s *Service) Snapshot() ServiceStats {
	r := &s.recovery
	r.mu.Lock()
	rs := RecoveryStats{
		VertexRetries:    r.retries.Load(),
		QuarantinedViews: r.quarantined.Load(),
		DegradedReplans:  r.replans.Load(),
		ReuseSkipped:     r.reuseSkip.Load(),
		Shed:             r.shed.Load(),
		DeadlineExceeded: r.deadline.Load(),
		Cancelled:        r.cancelled.Load(),
	}
	r.mu.Unlock()
	st := ServiceStats{
		SchemaVersion: StatsSchemaVersion,
		Storage: StorageStats{
			ResidentEncodedBytes: s.Store.TotalBytes(),
			Views:                s.Store.Len(),
			Cache:                s.Store.CacheStats(),
		},
		Scheduler: SchedulerStats{InFlight: s.InFlight(), Draining: s.Draining()},
	}
	for _, b := range []*breaker.Breaker{s.metaBreaker, s.storeBreaker} {
		opens, short := b.Opens(), b.ShortCircuits()
		rs.BreakerOpens += opens
		rs.BreakerShortCircuits += short
		st.Breakers = append(st.Breakers, BreakerStats{
			Dep:            b.Name(),
			State:          b.State().String(),
			Opens:          opens,
			ShortCircuits:  short,
			Probes:         b.Probes(),
			ProbeSuccesses: b.ProbeSuccesses(),
			ProbeFailures:  b.ProbeFailures(),
		})
	}
	st.Recovery = rs
	annotations, _, _, lookups, _ := s.Meta.Stats()
	st.AnalysisStale, st.ViewsBuiltLastInstance = s.changes.staleness(annotations)
	if o := s.obsv; o != nil {
		var trips, closes int64
		for _, b := range st.Breakers {
			trips += b.Opens
			closes += b.ProbeSuccesses
		}
		cache := st.Storage.Cache
		st.Metrics = obs.MetricsSnapshot{
			Counters: map[string]int64{
				// Counted by the Observer.
				"jobs.submitted":                o.jobsSubmitted.Value(),
				"jobs.completed":                o.jobsCompleted.Value(),
				"jobs.failed":                   o.jobsFailed.Value(),
				"exec.vertices":                 o.vertices.Value(),
				"exec.vertex_retries":           o.vertexRetries.Value(),
				"storage.consume_errors":        o.consumeErrors.Value(),
				"storage.views_written":         o.viewsWritten.Value(),
				"storage.encoded_bytes_written": o.encodedWritten.Value(),
				"meta.lookup_errors":            o.metaLookupErrors.Value(),
				"meta.annotations_served":       o.metaAnnotations.Value(),
				"analyzer.runs":                 o.analyzerRuns.Value(),
				"analyzer.candidates":           o.analyzerCandidates.Value(),
				"analyzer.selected":             o.analyzerSelected.Value(),
				// Counted by their owners.
				"cache.hits":             cache.Hits,
				"cache.misses":           cache.Misses,
				"meta.lookups":           lookups + o.metaLookupErrors.Value(),
				"breaker.trips":          trips,
				"breaker.closes":         closes,
				"jobs.shed":              rs.Shed,
				"jobs.cancelled":         rs.Cancelled,
				"jobs.deadline_exceeded": rs.DeadlineExceeded,
				"reuse.skipped":          rs.ReuseSkipped,
			},
			Histograms: map[string]obs.HistogramSnapshot{
				"job.latency_ticks":     o.jobLatency.Snapshot(),
				"exec.retry_wait_ticks": o.retryWait.Snapshot(),
			},
		}
	}
	return st
}

// sortedPaths returns the map's values (sig → path) sorted, for
// deterministic span emission order.
func sortedPaths(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
