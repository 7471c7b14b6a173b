package bench

import (
	"fmt"
	"io"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/report"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workload"
)

// TPCDSQueryResult is one query's baseline-vs-CloudViews runtime (one bar
// of Figure 13).
type TPCDSQueryResult struct {
	ID         int
	Baseline   float64
	CloudViews float64
	UsedViews  int
	BuiltViews int
}

// ImprovementPct returns the percentage runtime improvement.
func (q TPCDSQueryResult) ImprovementPct() float64 {
	return (1 - q.CloudViews/q.Baseline) * 100
}

// TPCDSResult is the §7.2 experiment.
type TPCDSResult struct {
	Queries []TPCDSQueryResult
	// Paper aggregates: 79/99 improved, avg ≈12.5%, total ≈17%.
	Improved            int
	AvgImprovementPct   float64
	TotalImprovementPct float64
	PeakImprovementPct  float64
	PeakSlowdownPct     float64
	ViewsSelected       int
}

// TPCDSConfig parameterizes the experiment.
type TPCDSConfig struct {
	Scale    float64
	Seed     int64
	TopViews int // the paper's conservative top-10
}

// DefaultTPCDSConfig mirrors the paper: all 99 queries, top-10 views.
func DefaultTPCDSConfig() TPCDSConfig {
	return TPCDSConfig{Scale: 1.0, Seed: 42, TopViews: 10}
}

// tpcdsRuns is the §7.2 protocol's output: every query with reuse off in
// ID order (base), and with reuse on in submission order (cv).
type tpcdsRuns struct {
	an       *analyzer.Analysis
	base, cv []*core.JobResult
}

// runTPCDSQueries executes the §7.2 experiment:
//
//  1. run all 99 queries with reuse off (this pass doubles as the
//     analysis history, exactly as in the paper),
//  2. select the top-K overlapping computations,
//  3. rerun the queries with reuse on, the analyzer's builder jobs first
//     (§6.5), so each view is built once before the queries that reuse it.
func runTPCDSQueries(cfg TPCDSConfig) (*tpcdsRuns, error) {
	cat := tpcds.Generate(cfg.Scale, cfg.Seed)
	queries := (&tpcds.Builder{Cat: cat}).Queries()
	specs := make([]core.JobSpec, len(queries))
	for i, q := range queries {
		specs[i] = core.JobSpec{Root: q.Root, Meta: workload.JobMeta{
			JobID: q.Name, Cluster: "tpcds", BusinessUnit: "tpcds",
			VC: "tpcds_vc", User: "bench", TemplateID: q.Name, Period: 1,
		}}
	}
	hist := core.NewService(cat, core.Config{})
	base, err := runAll(hist, specs)
	if err != nil {
		return nil, err
	}
	// TPC-DS is not recurring, so candidate filters stay permissive; the
	// conservative part is the top-K cut.
	an, err := analyze(hist.Repo, analyzer.Config{MinFrequency: 3, MinCostRatio: 0.05, TopK: cfg.TopViews})
	if err != nil {
		return nil, err
	}
	cv, err := runAll(reuseService(cat, core.Config{MaxViewsPerJob: 1}, an.Annotations), buildersFirst(specs, an.JobOrder))
	if err != nil {
		return nil, err
	}
	return &tpcdsRuns{an: an, base: base, cv: cv}, nil
}

// RunTPCDS executes the §7.2 experiment (runTPCDSQueries) and reports
// per-query runtimes with the paper's aggregates.
func RunTPCDS(cfg TPCDSConfig) (*TPCDSResult, error) {
	runs, err := runTPCDSQueries(cfg)
	if err != nil {
		return nil, err
	}
	return runs.result(), nil
}

// result reports the runs per query, with the paper's aggregates.
func (runs *tpcdsRuns) result() *TPCDSResult {
	cv := map[string]*core.JobResult{}
	for _, r := range runs.cv {
		cv[r.Spec.Meta.JobID] = r
	}
	res := &TPCDSResult{ViewsSelected: len(runs.an.Selected)}
	var sumBase, sumCV, sumImp float64
	for i, b := range runs.base {
		r := cv[b.Spec.Meta.JobID]
		q := TPCDSQueryResult{
			ID:         i + 1, // Queries lists q1..q99 in ID order
			Baseline:   b.Result.Latency,
			CloudViews: r.Result.Latency,
			UsedViews:  len(r.Decision.ViewsUsed),
			BuiltViews: len(r.Decision.ViewsBuilt),
		}
		res.Queries = append(res.Queries, q)
		imp := q.ImprovementPct()
		if imp > 0 {
			res.Improved++
		}
		if imp > res.PeakImprovementPct {
			res.PeakImprovementPct = imp
		}
		if imp < res.PeakSlowdownPct {
			res.PeakSlowdownPct = imp
		}
		sumBase += q.Baseline
		sumCV += q.CloudViews
		sumImp += imp
	}
	res.AvgImprovementPct = sumImp / float64(len(res.Queries))
	res.TotalImprovementPct = (1 - sumCV/sumBase) * 100
	return res
}

// Write renders the Figure 13 series and aggregates.
func (r *TPCDSResult) Write(w io.Writer) {
	t := &report.Table{Header: []string{"query", "baseline", "cloudviews", "Δ%", "used", "built"}}
	for _, q := range r.Queries {
		t.Add(fmt.Sprintf("q%d", q.ID), q.Baseline, q.CloudViews, q.ImprovementPct(), q.UsedViews, q.BuiltViews)
	}
	t.Write(w)
	fmt.Fprintf(w, "\nFigure 13: %d of %d queries improved; avg %.1f%%, total %.1f%%; peak +%.1f%% / %.1f%%\n",
		r.Improved, len(r.Queries), r.AvgImprovementPct, r.TotalImprovementPct,
		r.PeakImprovementPct, r.PeakSlowdownPct)
	fmt.Fprintf(w, "views selected: %d\n", r.ViewsSelected)
}
