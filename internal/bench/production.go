package bench

import (
	"fmt"
	"io"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/report"
	"cloudviews/internal/workgen"
)

// ProdJob is one job's baseline-vs-CloudViews measurement (one bar pair of
// Figures 11 and 12).
type ProdJob struct {
	JobID           string
	ViewGroup       int // which of the selected views the job contains
	Builder         bool
	BaselineLatency float64
	CVLatency       float64
	BaselineCPU     float64
	CVCPU           float64
}

// LatencyImprovementPct returns the per-job latency improvement
// (negative = slowdown), as plotted in Figure 11.
func (j ProdJob) LatencyImprovementPct() float64 {
	return (1 - j.CVLatency/j.BaselineLatency) * 100
}

// CPUImprovementPct returns the per-job CPU improvement (Figure 12).
func (j ProdJob) CPUImprovementPct() float64 {
	return (1 - j.CVCPU/j.BaselineCPU) * 100
}

// ProdResult is the full production experiment of §7.1.
type ProdResult struct {
	Jobs []ProdJob
	// Aggregates as the paper reports them.
	AvgLatencyImprovementPct   float64 // mean of per-job improvements (paper ≈43%)
	TotalLatencyImprovementPct float64 // 1 - ΣCV/ΣBase (paper ≈60%)
	AvgCPUImprovementPct       float64 // paper ≈36%
	TotalCPUImprovementPct     float64 // paper ≈54%
	ViewsSelected              int
}

// ProdConfig parameterizes the §7.1 experiment. Defaults mirror the paper:
// overlaps appearing at least thrice, costing at least 0.4 of their job
// (the paper used 20%), at most one per job, top-3 by utility, and the
// jobs relevant to those views.
type ProdConfig struct {
	Profile      workgen.Profile
	TopViews     int
	MinFrequency int
	MinCostRatio float64
	MaxJobs      int
	// GroupSizes caps how many jobs are taken per selected view; the
	// paper's workload was 16, 12, and 4 jobs for its three views.
	GroupSizes []int
}

// DefaultProdConfig returns the paper-mirroring configuration. The paper
// hand-picked the three most overlapping computations of a heavy-sharing
// customer workload, so the profile here is the tight producer/consumer
// pipeline case: deep sharing, short private tails. An overlap must cost
// at least 0.4 of its job (MinCostRatio); the paper's filter was 20%.
func DefaultProdConfig() ProdConfig {
	p := workgen.DefaultProfile("prod", 7)
	p.Templates = 420
	p.Users = 56
	p.CloneRate = 0.7
	p.UniqueInputRate = 0.45
	p.MaxExtraSteps = 2
	p.MaxSideBranches = 0
	return ProdConfig{
		Profile:      p,
		TopViews:     3,
		MinFrequency: 3,
		MinCostRatio: 0.4,
		MaxJobs:      32,
		GroupSizes:   []int{16, 12, 4},
	}
}

// prodRuns is the measured half of §7.1: the jobs picked for the
// selected views, each run with reuse off (base) and on (cv), in pick
// order.
type prodRuns struct {
	an       *analyzer.Analysis
	picks    []pick
	base, cv []*core.JobResult
}

// analyzerConfig is the paper's selection filter: at most one view per
// job, the topK best by utility.
func (c ProdConfig) analyzerConfig(topK int) analyzer.Config {
	return analyzer.Config{MinFrequency: c.MinFrequency, MinCostRatio: c.MinCostRatio, MaxPerJob: 1, TopK: topK}
}

// runProductionJobs records one day (instance 0) as history, mines it
// with the paper's filters, picks the next instance's jobs relevant to
// the selected views, and runs them with reuse off and then on. In the
// reuse-on pass the first job of each view group builds and the rest
// reuse.
func runProductionJobs(cfg ProdConfig) (*prodRuns, error) {
	h, err := recordHistory(cfg.Profile)
	if err != nil {
		return nil, err
	}
	an, err := analyze(h.repo, cfg.analyzerConfig(cfg.TopViews))
	if err != nil {
		return nil, err
	}
	picks := pickRelevant(h.jobs, an.Selected, cfg.GroupSizes, cfg.MaxJobs)
	if len(picks) < 2 {
		return nil, fmt.Errorf("bench: only %d relevant jobs found", len(picks))
	}
	specs := make([]core.JobSpec, len(picks))
	for i, p := range picks {
		specs[i] = p.spec
	}
	base, err := runAll(core.NewService(h.cat, core.Config{}), specs)
	if err != nil {
		return nil, err
	}
	cv, err := runAll(reuseService(h.cat, core.Config{MaxViewsPerJob: 1}, an.Annotations), specs)
	if err != nil {
		return nil, err
	}
	return &prodRuns{an: an, picks: picks, base: base, cv: cv}, nil
}

// RunProduction executes the §7.1 experiment (runProductionJobs) and
// aggregates it as the paper reports it.
func RunProduction(cfg ProdConfig) (*ProdResult, error) {
	runs, err := runProductionJobs(cfg)
	if err != nil {
		return nil, err
	}
	return runs.result(), nil
}

// result aggregates the runs as the paper reports them.
func (runs *prodRuns) result() *ProdResult {
	res := &ProdResult{ViewsSelected: len(runs.an.Selected)}
	var sumBaseLat, sumCVLat, sumBaseCPU, sumCVCPU, sumLatImp, sumCPUImp float64
	for i, p := range runs.picks {
		b, r := runs.base[i], runs.cv[i]
		pj := ProdJob{
			JobID:           p.spec.Meta.JobID,
			ViewGroup:       p.group,
			Builder:         len(r.Decision.ViewsBuilt) > 0,
			BaselineLatency: b.Result.Latency,
			CVLatency:       r.Result.Latency,
			BaselineCPU:     b.Result.TotalCPU,
			CVCPU:           r.Result.TotalCPU,
		}
		res.Jobs = append(res.Jobs, pj)
		sumBaseLat += pj.BaselineLatency
		sumCVLat += pj.CVLatency
		sumBaseCPU += pj.BaselineCPU
		sumCVCPU += pj.CVCPU
		sumLatImp += pj.LatencyImprovementPct()
		sumCPUImp += pj.CPUImprovementPct()
	}
	n := float64(len(res.Jobs))
	res.AvgLatencyImprovementPct = sumLatImp / n
	res.TotalLatencyImprovementPct = (1 - sumCVLat/sumBaseLat) * 100
	res.AvgCPUImprovementPct = sumCPUImp / n
	res.TotalCPUImprovementPct = (1 - sumCVCPU/sumBaseCPU) * 100
	return res
}

// Write renders the Figures 11 and 12 tables plus the paper-style
// aggregates.
func (r *ProdResult) Write(w io.Writer) {
	t := &report.Table{Header: []string{"job", "view", "builder",
		"base latency", "cv latency", "latency Δ%", "base CPU", "cv CPU", "CPU Δ%"}}
	for i, j := range r.Jobs {
		t.Add(fmt.Sprintf("%d", i+1), j.ViewGroup+1, j.Builder,
			j.BaselineLatency, j.CVLatency, j.LatencyImprovementPct(),
			j.BaselineCPU, j.CVCPU, j.CPUImprovementPct())
	}
	t.Write(w)
	fmt.Fprintf(w, "\nFigure 11 (latency): average improvement %.1f%%, overall %.1f%%\n",
		r.AvgLatencyImprovementPct, r.TotalLatencyImprovementPct)
	fmt.Fprintf(w, "Figure 12 (CPU):     average improvement %.1f%%, overall %.1f%%\n",
		r.AvgCPUImprovementPct, r.TotalCPUImprovementPct)
	var maxUp, maxDown float64
	for _, j := range r.Jobs {
		if v := j.LatencyImprovementPct(); v > maxUp {
			maxUp = v
		}
		if v := j.LatencyImprovementPct(); v < maxDown {
			maxDown = v
		}
	}
	fmt.Fprintf(w, "max latency speedup %.1f%%, max slowdown %.1f%% (builders pay materialization)\n",
		maxUp, maxDown)
}
