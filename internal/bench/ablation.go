package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/report"
	"cloudviews/internal/workload"
)

// The ablation harnesses isolate the design choices DESIGN.md calls out:
// the feedback loop, view physical design, job coordination, early
// materialization, and the per-job view limit. Each returns the metric
// pair "with the mechanism" vs "without".

// Ablations is the DESIGN.md §5 ablation table: every ablation below, run
// on the production workload at seed 2024.
type Ablations struct {
	Feedback     *FeedbackAblationResult
	Design       *DesignAblationResult
	Coordination *CoordinationAblationResult
	EarlyMat     *EarlyMatAblationResult
	ViewLimit    *ViewLimitAblationResult
}

// ablationRun is what every ablation shares: one recorded history and
// its instance 1's total CPU with reuse off.
type ablationRun struct {
	*history
	cfg     ProdConfig
	baseCPU float64
}

// RunAblations records the seed-2024 history once and runs every
// ablation over it.
func RunAblations() (*Ablations, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = 2024
	h, err := recordHistory(cfg.Profile)
	if err != nil {
		return nil, err
	}
	base, err := runAll(core.NewService(h.cat, core.Config{}), h.jobs)
	if err != nil {
		return nil, err
	}
	r := &ablationRun{history: h, cfg: cfg, baseCPU: totalCPU(base)}
	var a Ablations
	if a.Feedback, err = r.feedback(); err != nil {
		return nil, err
	}
	if a.Design, err = r.design(); err != nil {
		return nil, err
	}
	if a.Coordination, err = r.coordination(); err != nil {
		return nil, err
	}
	if a.EarlyMat, err = r.earlyMat(); err != nil {
		return nil, err
	}
	if a.ViewLimit, err = r.viewLimit(); err != nil {
		return nil, err
	}
	return &a, nil
}

// Write renders one row per ablation, the metric with the mechanism
// against without it, to four significant digits.
func (a *Ablations) Write(w io.Writer) {
	t := &report.Table{Header: []string{"ablation", "with mechanism", "without"}}
	row := func(name string, with, without float64) {
		t.Add(name, strconv.FormatFloat(with, 'g', 4, 64), strconv.FormatFloat(without, 'g', 4, 64))
	}
	row("feedback loop vs naive estimates (total CPU improvement %)",
		a.Feedback.MeasuredStatsPct, a.Feedback.EstimatesPct)
	row("physical design (consumer latency, elected vs single-partition view)",
		a.Design.ElectedLatency, a.Design.NaiveLatency)
	row("job coordination (total CPU improvement %, coordinated vs concurrent)",
		a.Coordination.CoordinatedPct, a.Coordination.UncoordinatedPct)
	row("early materialization (recovery CPU after builder crash)",
		a.EarlyMat.EarlyCPU, a.EarlyMat.LateCPU)
	row("per-job view limit (total CPU improvement %, limit 1 vs 4)",
		a.ViewLimit.ImprovementPct[1], a.ViewLimit.ImprovementPct[4])
	t.Write(w)
}

// pct is the total CPU improvement of cpu over the reuse-off baseline.
func (r *ablationRun) pct(cpu float64) float64 { return (1 - cpu/r.baseCPU) * 100 }

// savedPct runs specs, in order, on a reuse-on service under cfg with
// anns loaded and returns their total CPU improvement.
func (r *ablationRun) savedPct(cfg core.Config, anns []metadata.Annotation, specs []core.JobSpec) (float64, error) {
	rs, err := runAll(reuseService(r.cat, cfg, anns), specs)
	if err != nil {
		return 0, err
	}
	return r.pct(totalCPU(rs)), nil
}

// viewPair mines the single best view and returns its analysis with the
// first two instance-1 jobs that contain it: its builder and the next job.
func (r *ablationRun) viewPair() (*analyzer.Analysis, []core.JobSpec, error) {
	an, err := analyze(r.repo, r.cfg.analyzerConfig(1))
	if err != nil {
		return nil, nil, err
	}
	picks := pickRelevant(r.jobs, an.Selected[:1], nil, 2)
	if len(picks) < 2 {
		return nil, nil, errors.New("bench: not enough jobs contain the view")
	}
	return an, []core.JobSpec{picks[0].spec, picks[1].spec}, nil
}

// FeedbackAblationResult compares view selection driven by measured
// runtime statistics (the feedback loop, §5.1) against selection driven by
// naive compile-time estimates.
type FeedbackAblationResult struct {
	// Realized total CPU improvement over the consumer instance.
	MeasuredStatsPct float64
	EstimatesPct     float64
}

// feedback mines the history twice, swapping only the utility source, and
// runs every instance-1 job under each selection.
func (r *ablationRun) feedback() (*FeedbackAblationResult, error) {
	mineAndRun := func(repo *workload.Repository, acfg analyzer.Config) (float64, error) {
		an, err := analyze(repo, acfg)
		if err != nil {
			return 0, err
		}
		return r.savedPct(core.Config{MaxViewsPerJob: 1}, an.Annotations, r.jobs)
	}
	acfg := r.cfg.analyzerConfig(r.cfg.TopViews)
	withStats, err := mineAndRun(r.repo, acfg)
	if err != nil {
		return nil, err
	}
	// The analyzer reads whatever costs the repository holds, so the
	// estimate variant mines a copy of the history whose measured costs
	// are replaced by the naive estimate.
	est := workload.NewRepository()
	for _, o := range r.repo.Snapshot() {
		o.CumulativeCost = naiveEstimate(o)
		est.Append(o)
	}
	acfg.MinCostRatio = 0 // estimate-based ratios are incomparable
	withEst, err := mineAndRun(est, acfg)
	if err != nil {
		return nil, err
	}
	return &FeedbackAblationResult{MeasuredStatsPct: withStats, EstimatesPct: withEst}, nil
}

// naiveEstimate mimics the classic what-if-optimizer failure of §5.1:
// fixed per-operator selectivities compound with depth, so deep subgraphs
// — precisely the expensive reductions worth materializing — are estimated
// absurdly cheap, while shallow scans look relatively attractive.
func naiveEstimate(o workload.Observation) float64 {
	cost := 600.0
	for i := 2; i < o.Ops && i < 10; i++ {
		cost *= 0.55
	}
	return cost * float64(o.Ops)
}

// DesignAblationResult compares consumer latency when views are laid out
// with the analyzer-elected physical design (§5.3) vs a naive
// single-partition layout.
type DesignAblationResult struct {
	ElectedLatency float64
	NaiveLatency   float64
}

// design builds the same view twice — once with the elected design, once
// gathered to one partition — and measures a consumer's simulated latency
// against each. A single-partition view collapses the consumer's
// downstream parallelism, which is exactly why §5.3 says poorly designed
// views end up unused.
func (r *ablationRun) design() (*DesignAblationResult, error) {
	an, pair, err := r.viewPair()
	if err != nil {
		return nil, err
	}
	latency := func(anns []metadata.Annotation) (float64, error) {
		rs, err := runAll(reuseService(r.cat, core.Config{MaxViewsPerJob: 1}, anns), pair)
		if err != nil {
			return 0, err
		}
		if len(rs[1].Decision.ViewsUsed) == 0 {
			return 0, errors.New("bench: consumer did not reuse")
		}
		return rs[1].Result.Latency, nil
	}
	elected, err := latency(an.Annotations)
	if err != nil {
		return nil, err
	}
	naiveAnns := append([]metadata.Annotation(nil), an.Annotations...)
	for i := range naiveAnns {
		naiveAnns[i].Props = plan.PhysicalProps{
			Part: plan.Partitioning{Kind: plan.PartSingleton, Count: 1},
		}
	}
	naive, err := latency(naiveAnns)
	if err != nil {
		return nil, err
	}
	return &DesignAblationResult{ElectedLatency: elected, NaiveLatency: naive}, nil
}

// CoordinationAblationResult compares the realized improvement when jobs
// are submitted in the analyzer's coordinated order (§6.5: builders first)
// vs an adversarial order (all consumers before the builder, as happens
// with concurrent uncoordinated arrival).
type CoordinationAblationResult struct {
	CoordinatedPct   float64
	UncoordinatedPct float64
}

// coordination measures both orders over every instance-1 job.
func (r *ablationRun) coordination() (*CoordinationAblationResult, error) {
	an, err := analyze(r.repo, r.cfg.analyzerConfig(r.cfg.TopViews))
	if err != nil {
		return nil, err
	}
	coordinated, err := r.savedPct(core.Config{MaxViewsPerJob: 1}, an.Annotations, buildersFirst(r.jobs, an.JobOrder))
	if err != nil {
		return nil, err
	}
	// Uncoordinated concurrent arrival: every job is optimized before any
	// finishes, so no job sees another's views. No service schedule
	// reproduces that deterministically, so this variant drives the
	// service's optimizer and executor directly, with the lookup tags
	// core derives (the plan's inputs plus the template ID).
	svc := reuseService(r.cat, core.Config{MaxViewsPerJob: 1}, an.Annotations)
	plans := make([]*plan.Node, len(r.jobs))
	for i, j := range r.jobs {
		anns, err := svc.Meta.TryRelevantViews(j.Meta.VC, append(plan.Inputs(j.Root), j.Meta.TemplateID))
		if err != nil {
			return nil, err
		}
		plans[i], _ = svc.Opt.Optimize(j.Root, j.Meta.JobID, anns, 0)
	}
	var cpu float64
	for i, j := range r.jobs {
		res, err := svc.Exec.RunCtx(context.Background(), plans[i], j.Meta.JobID, 0, 0)
		if err != nil {
			return nil, err
		}
		cpu += res.TotalCPU
	}
	return &CoordinationAblationResult{CoordinatedPct: coordinated, UncoordinatedPct: r.pct(cpu)}, nil
}

// EarlyMatAblationResult compares recovery cost after a builder crash with
// early materialization on vs off: with early publication the next job
// reuses the checkpointed view; without, it recomputes and rebuilds.
type EarlyMatAblationResult struct {
	EarlyCPU float64
	LateCPU  float64
}

// crashAtKind is an exec.FaultHook that permanently crashes the first
// operator of the targeted kind — the builder-failure probe for the
// early-materialization ablation.
type crashAtKind struct{ kind plan.OpKind }

func (c crashAtKind) VertexDone(_, _ string, k plan.OpKind, _ int) error {
	if k == c.kind {
		return fmt.Errorf("injected builder crash")
	}
	return nil
}

func (c crashAtKind) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// earlyMat injects a builder failure after the view seals and measures
// the follow-up job's CPU under both publication modes.
func (r *ablationRun) earlyMat() (*EarlyMatAblationResult, error) {
	an, pair, err := r.viewPair()
	if err != nil {
		return nil, err
	}
	nextCPU := func(late bool) (float64, error) {
		svc := reuseService(r.cat, core.Config{MaxViewsPerJob: 1, LatePublish: late}, an.Annotations)
		// The builder crashes right after the Materialize operator runs.
		// The crash is permanent (not Transient), so the vertex-retry loop
		// fails the job on the first attempt.
		svc.Exec.Faults = crashAtKind{plan.OpMaterialize}
		if _, err := svc.Run(context.Background(), pair[0]); err == nil {
			return 0, errors.New("bench: expected injected failure")
		}
		svc.Exec.Faults = nil
		rs, err := runAll(svc, pair[1:])
		if err != nil {
			return 0, err
		}
		return totalCPU(rs), nil
	}
	early, err := nextCPU(false)
	if err != nil {
		return nil, err
	}
	late, err := nextCPU(true)
	if err != nil {
		return nil, err
	}
	return &EarlyMatAblationResult{EarlyCPU: early, LateCPU: late}, nil
}

// ViewLimitAblationResult compares realized improvement under different
// per-job materialization limits (§6.2).
type ViewLimitAblationResult struct {
	// ImprovementPct maps limit -> total CPU improvement.
	ImprovementPct map[int]float64
}

// viewLimit reruns every instance-1 job with per-job limits of 1, 2, and
// 4 views over one permissive selection.
func (r *ablationRun) viewLimit() (*ViewLimitAblationResult, error) {
	an, err := analyze(r.repo, analyzer.Config{MinFrequency: 2, MinCostRatio: 0.1, TopK: 12})
	if err != nil {
		return nil, err
	}
	res := &ViewLimitAblationResult{ImprovementPct: map[int]float64{}}
	for _, limit := range []int{1, 2, 4} {
		if res.ImprovementPct[limit], err = r.savedPct(core.Config{MaxViewsPerJob: limit}, an.Annotations, r.jobs); err != nil {
			return nil, err
		}
	}
	return res, nil
}
