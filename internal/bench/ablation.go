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
	"cloudviews/internal/signature"
	"cloudviews/internal/workgen"
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

// RunAblations runs every ablation.
func RunAblations() (*Ablations, error) {
	const seed = 2024
	var a Ablations
	var err error
	if a.Feedback, err = RunFeedbackAblation(seed); err != nil {
		return nil, err
	}
	if a.Design, err = RunPhysicalDesignAblation(seed); err != nil {
		return nil, err
	}
	if a.Coordination, err = RunCoordinationAblation(seed); err != nil {
		return nil, err
	}
	if a.EarlyMat, err = RunEarlyMatAblation(seed); err != nil {
		return nil, err
	}
	if a.ViewLimit, err = RunViewLimitAblation(seed); err != nil {
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

// FeedbackAblationResult compares view selection driven by measured
// runtime statistics (the feedback loop, §5.1) against selection driven by
// naive compile-time estimates.
type FeedbackAblationResult struct {
	// Realized total CPU improvement over the consumer instance.
	MeasuredStatsPct float64
	EstimatesPct     float64
}

// RunFeedbackAblation runs the production experiment twice with identical
// workloads, swapping only the utility source.
func RunFeedbackAblation(seed int64) (*FeedbackAblationResult, error) {
	withStats, err := runSelectionVariant(seed, false)
	if err != nil {
		return nil, err
	}
	withEst, err := runSelectionVariant(seed, true)
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

func runSelectionVariant(seed int64, useEstimates bool) (float64, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = seed
	w := workgen.Generate(cfg.Profile)
	hist := core.NewService(w.Catalog, core.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			return 0, err
		}
	}
	acfg := analyzer.Config{
		MinFrequency: cfg.MinFrequency,
		MinCostRatio: cfg.MinCostRatio,
		MaxPerJob:    1,
		TopK:         cfg.TopViews,
	}
	repo := hist.Repo
	if useEstimates {
		// The analyzer reads whatever costs the repository holds, so the
		// estimate variant mines a copy of the history whose measured
		// costs are replaced by the naive estimate.
		repo = workload.NewRepository()
		for _, o := range hist.Repo.Snapshot() {
			o.CumulativeCost = naiveEstimate(o)
			repo.Append(o)
		}
		acfg.MinCostRatio = 0 // estimate-based ratios are incomparable
	}
	an := analyzer.New(repo).Analyze(acfg)
	if len(an.Selected) == 0 {
		return 0, errors.New("bench: ablation selected no views")
	}

	// Consumer instance: run every job, annotations loaded; measure the
	// realized total CPU against a baseline pass.
	w.DeliverInstance(1)
	jobs := w.JobsForInstance(1)
	base := core.NewService(w.Catalog, core.Config{Enabled: false})
	var baseCPU float64
	for _, j := range jobs {
		r, err := base.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			return 0, err
		}
		baseCPU += r.Result.TotalCPU
	}
	cv := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1})
	cv.Meta.LoadAnalysis(an.Annotations)
	var cvCPU float64
	for _, j := range jobs {
		r, err := cv.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			return 0, err
		}
		cvCPU += r.Result.TotalCPU
	}
	return (1 - cvCPU/baseCPU) * 100, nil
}

// DesignAblationResult compares consumer latency when views are laid out
// with the analyzer-elected physical design (§5.3) vs a naive
// single-partition layout.
type DesignAblationResult struct {
	ElectedLatency float64
	NaiveLatency   float64
}

// RunPhysicalDesignAblation builds the same view twice — once with the
// elected design, once gathered to one partition — and measures a
// consumer's simulated latency against each. A single-partition view
// collapses the consumer's downstream parallelism, which is exactly why
// §5.3 says poorly designed views end up unused.
func RunPhysicalDesignAblation(seed int64) (*DesignAblationResult, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = seed
	w := workgen.Generate(cfg.Profile)
	hist := core.NewService(w.Catalog, core.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			return nil, err
		}
	}
	an := analyzer.New(hist.Repo).Analyze(analyzer.Config{
		MinFrequency: cfg.MinFrequency, MinCostRatio: cfg.MinCostRatio,
		MaxPerJob: 1, TopK: 1,
	})
	if len(an.Selected) == 0 {
		return nil, errors.New("bench: no view selected")
	}
	w.DeliverInstance(1)
	jobs := w.JobsForInstance(1)
	sel := an.Selected[0].NormSig
	comp := signature.NewComputer()
	var builder, consumer *workgen.Job
	for i := range jobs {
		if planContainsNorm(comp, jobs[i], sel) {
			if builder == nil {
				builder = &jobs[i]
			} else if consumer == nil {
				consumer = &jobs[i]
				break
			}
		}
	}
	if consumer == nil {
		return nil, errors.New("bench: not enough jobs contain the view")
	}

	run := func(anns []metadata.Annotation) (float64, error) {
		svc := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1})
		svc.Meta.LoadAnalysis(anns)
		if _, err := svc.Run(context.Background(), core.JobSpec{Meta: builder.Meta, Root: builder.Root}); err != nil {
			return 0, err
		}
		r, err := svc.Run(context.Background(), core.JobSpec{Meta: consumer.Meta, Root: consumer.Root})
		if err != nil {
			return 0, err
		}
		if len(r.Decision.ViewsUsed) == 0 {
			return 0, errors.New("bench: consumer did not reuse")
		}
		return r.Result.Latency, nil
	}

	elected, err := run(an.Annotations)
	if err != nil {
		return nil, err
	}
	naiveAnns := append([]metadata.Annotation(nil), an.Annotations...)
	for i := range naiveAnns {
		naiveAnns[i].Props = plan.PhysicalProps{
			Part: plan.Partitioning{Kind: plan.PartSingleton, Count: 1},
		}
	}
	naive, err := run(naiveAnns)
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

// RunCoordinationAblation measures both orders on the production workload.
func RunCoordinationAblation(seed int64) (*CoordinationAblationResult, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = seed
	w := workgen.Generate(cfg.Profile)
	hist := core.NewService(w.Catalog, core.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			return nil, err
		}
	}
	an := analyzer.New(hist.Repo).Analyze(analyzer.Config{
		MinFrequency: cfg.MinFrequency, MinCostRatio: cfg.MinCostRatio,
		MaxPerJob: 1, TopK: cfg.TopViews,
	})
	if len(an.Selected) == 0 {
		return nil, errors.New("bench: no views selected")
	}
	w.DeliverInstance(1)
	jobs := w.JobsForInstance(1)

	base := core.NewService(w.Catalog, core.Config{Enabled: false})
	var baseCPU float64
	for _, j := range jobs {
		r, err := base.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			return nil, err
		}
		baseCPU += r.Result.TotalCPU
	}

	run := func(order []workgen.Job, concurrent bool) (float64, error) {
		svc := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1})
		svc.Meta.LoadAnalysis(an.Annotations)
		var cpu float64
		if concurrent {
			// Uncoordinated concurrent arrival: every job is optimized
			// before any finishes, so no job sees another's views.
			plans := make([]*plan.Node, len(order))
			for i, j := range order {
				anns, err := svc.Meta.TryRelevantViews(j.Meta.VC, []string{j.Meta.TemplateID, j.Template.Input})
				if err != nil {
					return 0, err
				}
				plans[i], _ = svc.Opt.Optimize(j.Root, j.Meta.JobID, anns, 0)
			}
			for i, j := range order {
				res, err := svc.Exec.RunCtx(context.Background(), plans[i], j.Meta.JobID, 0, 0)
				if err != nil {
					return 0, err
				}
				cpu += res.TotalCPU
			}
			return cpu, nil
		}
		for _, j := range order {
			r, err := svc.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
			if err != nil {
				return 0, err
			}
			cpu += r.Result.TotalCPU
		}
		return cpu, nil
	}

	coordCPU, err := run(coordinatedJobOrder(jobs, an.JobOrder), false)
	if err != nil {
		return nil, err
	}
	uncoordCPU, err := run(jobs, true)
	if err != nil {
		return nil, err
	}
	return &CoordinationAblationResult{
		CoordinatedPct:   (1 - coordCPU/baseCPU) * 100,
		UncoordinatedPct: (1 - uncoordCPU/baseCPU) * 100,
	}, nil
}

// coordinatedJobOrder puts the analyzer's builder jobs first. The hints
// name instance-0 job IDs; recurring instances map by template.
func coordinatedJobOrder(jobs []workgen.Job, hints []string) []workgen.Job {
	rank := map[string]int{}
	for i, h := range hints {
		rank[templateOf(h)] = i + 1
	}
	out := append([]workgen.Job(nil), jobs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less2(out[j], out[j-1], rank); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less2(a, b workgen.Job, rank map[string]int) bool {
	ra, rb := rank[a.Meta.TemplateID], rank[b.Meta.TemplateID]
	if ra == 0 {
		ra = 1 << 30
	}
	if rb == 0 {
		rb = 1 << 30
	}
	return ra < rb
}

// templateOf strips the instance suffix from a generated job ID.
func templateOf(jobID string) string {
	for i := len(jobID) - 1; i >= 0; i-- {
		if jobID[i] == '-' {
			return jobID[:i]
		}
	}
	return jobID
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

// RunEarlyMatAblation injects a builder failure after the view seals and
// measures the follow-up job's CPU under both publication modes.
func RunEarlyMatAblation(seed int64) (*EarlyMatAblationResult, error) {
	runMode := func(late bool) (float64, error) {
		cfg := DefaultProdConfig()
		cfg.Profile.Seed = seed
		w := workgen.Generate(cfg.Profile)
		hist := core.NewService(w.Catalog, core.Config{Enabled: false})
		for _, j := range w.JobsForInstance(0) {
			if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
				return 0, err
			}
		}
		an := analyzer.New(hist.Repo).Analyze(analyzer.Config{
			MinFrequency: cfg.MinFrequency, MinCostRatio: cfg.MinCostRatio,
			MaxPerJob: 1, TopK: 1,
		})
		if len(an.Selected) == 0 {
			return 0, errors.New("bench: no view selected")
		}
		w.DeliverInstance(1)
		jobs := w.JobsForInstance(1)
		comp := signature.NewComputer()
		var builder, next *workgen.Job
		for i := range jobs {
			if planContainsNorm(comp, jobs[i], an.Selected[0].NormSig) {
				if builder == nil {
					builder = &jobs[i]
				} else {
					next = &jobs[i]
					break
				}
			}
		}
		if next == nil {
			return 0, errors.New("bench: not enough relevant jobs")
		}
		svc := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1, LatePublish: late})
		svc.Meta.LoadAnalysis(an.Annotations)
		// The builder crashes right after the Materialize operator runs.
		// The crash is permanent (not Transient), so the vertex-retry loop
		// fails the job on the first attempt.
		svc.Exec.Faults = crashAtKind{plan.OpMaterialize}
		if _, err := svc.Run(context.Background(), core.JobSpec{Meta: builder.Meta, Root: builder.Root}); err == nil {
			return 0, errors.New("bench: expected injected failure")
		}
		svc.Exec.Faults = nil
		r, err := svc.Run(context.Background(), core.JobSpec{Meta: next.Meta, Root: next.Root})
		if err != nil {
			return 0, err
		}
		return r.Result.TotalCPU, nil
	}
	early, err := runMode(false)
	if err != nil {
		return nil, err
	}
	late, err := runMode(true)
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

// RunViewLimitAblation reruns the production workload with per-job limits
// of 1, 2, and 4 views.
func RunViewLimitAblation(seed int64) (*ViewLimitAblationResult, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = seed
	w := workgen.Generate(cfg.Profile)
	hist := core.NewService(w.Catalog, core.Config{Enabled: false})
	for _, j := range w.JobsForInstance(0) {
		if _, err := hist.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
			return nil, err
		}
	}
	an := analyzer.New(hist.Repo).Analyze(analyzer.Config{
		MinFrequency: 2, MinCostRatio: 0.1, TopK: 12,
	})
	if len(an.Selected) == 0 {
		return nil, errors.New("bench: no views selected")
	}
	w.DeliverInstance(1)
	jobs := w.JobsForInstance(1)
	base := core.NewService(w.Catalog, core.Config{Enabled: false})
	var baseCPU float64
	for _, j := range jobs {
		r, err := base.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			return nil, err
		}
		baseCPU += r.Result.TotalCPU
	}
	res := &ViewLimitAblationResult{ImprovementPct: map[int]float64{}}
	for _, limit := range []int{1, 2, 4} {
		svc := core.NewService(w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: limit})
		svc.Meta.LoadAnalysis(an.Annotations)
		var cpu float64
		for _, j := range jobs {
			r, err := svc.Run(context.Background(), core.JobSpec{Meta: j.Meta, Root: j.Root})
			if err != nil {
				return nil, err
			}
			cpu += r.Result.TotalCPU
		}
		res.ImprovementPct[limit] = (1 - cpu/baseCPU) * 100
	}
	return res, nil
}
