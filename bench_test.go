package cloudviews

// One benchmark per table and figure of the paper's evaluation, plus one
// per ablation called out in DESIGN.md. Each benchmark executes the full
// experiment and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every number the paper reports (EXPERIMENTS.md records the
// paper-vs-measured comparison).

import (
	"testing"

	"cloudviews/internal/bench"
)

// BenchmarkFigure1ClusterOverlap regenerates Figure 1: the percentage of
// overlapping jobs, users with overlap, and overlapping subgraphs across
// five clusters.
func BenchmarkFigure1ClusterOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var jobs, users, subs float64
			for _, r := range rows {
				jobs += r.Stats.PctJobsOverlapping
				users += r.Stats.PctUsersOverlapping
				subs += r.Stats.PctSubgraphsOverlapping
			}
			n := float64(len(rows))
			b.ReportMetric(jobs/n, "%jobs-overlap")
			b.ReportMetric(users/n, "%users-overlap")
			b.ReportMetric(subs/n, "%subgraphs-overlap")
		}
	}
}

// BenchmarkFigure2VCOverlap regenerates Figure 2: per-VC job overlap and
// average overlap frequency in the largest cluster.
func BenchmarkFigure2VCOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			over50 := 0
			for _, p := range r.PctJobsOverlapping {
				if p > 50 {
					over50++
				}
			}
			b.ReportMetric(float64(len(r.PctJobsOverlapping)), "VCs")
			b.ReportMetric(float64(over50)/float64(len(r.PctJobsOverlapping))*100, "%VCs>50%overlap")
		}
	}
}

// BenchmarkFigure3BusinessUnitCDFs regenerates Figure 3: per-job,
// per-input, per-user, and per-VC overlap distributions in the largest
// business unit.
func BenchmarkFigure3BusinessUnitCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(r.Stats.OverlapsPerJob)), "jobs")
			b.ReportMetric(float64(len(r.Stats.OverlapsPerInput)), "inputs")
			b.ReportMetric(float64(len(r.Stats.OverlapsPerUser)), "users")
		}
	}
}

// BenchmarkFigure4OperatorOverlap regenerates Figure 4: operator breakdown
// of overlapping subgraph roots and per-operator frequency distributions.
func BenchmarkFigure4OperatorOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(r.Breakdown) > 0 {
			b.ReportMetric(r.Breakdown[0].Pct, "%top-operator")
			b.ReportMetric(float64(len(r.Breakdown)), "operators")
		}
	}
}

// BenchmarkFigure5ImpactCDFs regenerates Figure 5: distributions of view
// frequency, runtime, size, and view-to-query cost ratio.
func BenchmarkFigure5ImpactCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Stats.AvgFrequency, "avg-frequency")
			b.ReportMetric(float64(len(r.Stats.Frequencies)), "overlapping-views")
		}
	}
}

// BenchmarkFigure11ProductionLatency regenerates Figure 11: end-to-end
// latency of the production-style 32-job workload, baseline vs CloudViews
// (paper: average 43%, overall 60% improvement).
func BenchmarkFigure11ProductionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunProduction(bench.DefaultProdConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AvgLatencyImprovementPct, "%avg-latency-improvement")
			b.ReportMetric(r.TotalLatencyImprovementPct, "%total-latency-improvement")
			b.ReportMetric(float64(len(r.Jobs)), "jobs")
		}
	}
}

// BenchmarkFigure12ProductionCPUHours regenerates Figure 12: resource
// consumption of the same workload (paper: average 36%, overall 54% drop).
func BenchmarkFigure12ProductionCPUHours(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunProduction(bench.DefaultProdConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AvgCPUImprovementPct, "%avg-cpu-improvement")
			b.ReportMetric(r.TotalCPUImprovementPct, "%total-cpu-improvement")
		}
	}
}

// BenchmarkFigure13TPCDS regenerates Figure 13: per-query runtime
// improvement across all 99 TPC-DS queries with the top-10 views (paper:
// 79/99 improved, average 12.5%, total 17%).
func BenchmarkFigure13TPCDS(b *testing.B) {
	if testing.Short() {
		b.Skip("full 99-query TPC-DS run; skipped in -short smoke mode")
	}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTPCDS(bench.DefaultTPCDSConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Improved), "queries-improved")
			b.ReportMetric(r.AvgImprovementPct, "%avg-improvement")
			b.ReportMetric(r.TotalImprovementPct, "%total-improvement")
		}
	}
}

// BenchmarkOverheadAnalyzer regenerates the §7.3 analyzer-cost
// measurement: wall time to analyze a cluster's history.
func BenchmarkOverheadAnalyzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunOverheads(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.AnalyzerJobs)/r.AnalyzerWall.Seconds(), "jobs/s")
			b.ReportMetric(float64(r.AnalyzerSubgraphs), "subgraphs")
		}
	}
}

// BenchmarkOverheadMetadataLookup regenerates the §7.3 metadata lookup
// measurement (paper: 19 ms at 1 thread, 14.3 ms at 5 threads; ours run
// in-process so the absolute scale is microseconds).
func BenchmarkOverheadMetadataLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunOverheads(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.LookupAvg1Thread.Microseconds()), "us/lookup-1thread")
			b.ReportMetric(float64(r.LookupAvg5Threads.Microseconds()), "us/lookup-5threads")
		}
	}
}

// BenchmarkOverheadOptimizer regenerates the §7.3 optimizer-time
// measurement (paper: +28% when creating a view, −17% when using one).
func BenchmarkOverheadOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunOverheads(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric((float64(r.OptimizeCreate)/float64(r.OptimizePlain)-1)*100, "%create-overhead")
			b.ReportMetric((float64(r.OptimizeUse)/float64(r.OptimizePlain)-1)*100, "%use-overhead")
		}
	}
}

// BenchmarkAblationFeedbackVsEstimates compares view selection by measured
// runtime statistics against naive compile-time estimates (§5.1).
func BenchmarkAblationFeedbackVsEstimates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFeedbackAblation(2024)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.MeasuredStatsPct, "%improvement-feedback")
			b.ReportMetric(r.EstimatesPct, "%improvement-estimates")
		}
	}
}

// BenchmarkAblationPhysicalDesign compares consumer latency against views
// with the elected physical design vs a naive single-partition layout
// (§5.3).
func BenchmarkAblationPhysicalDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunPhysicalDesignAblation(2024)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ElectedLatency, "latency-elected")
			b.ReportMetric(r.NaiveLatency, "latency-naive")
		}
	}
}

// BenchmarkAblationJobCoordination compares coordinated submission order
// (builders first, §6.5) against uncoordinated concurrent arrival.
func BenchmarkAblationJobCoordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunCoordinationAblation(2024)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.CoordinatedPct, "%improvement-coordinated")
			b.ReportMetric(r.UncoordinatedPct, "%improvement-uncoordinated")
		}
	}
}

// BenchmarkAblationEarlyMaterialization compares crash-recovery cost with
// early view publication on vs off (§6.4).
func BenchmarkAblationEarlyMaterialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunEarlyMatAblation(2024)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.EarlyCPU, "recovery-cpu-early")
			b.ReportMetric(r.LateCPU, "recovery-cpu-late")
		}
	}
}

// BenchmarkAblationViewLimit compares per-job materialization limits
// (§6.2).
func BenchmarkAblationViewLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunViewLimitAblation(2024)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.ImprovementPct[1], "%improvement-limit1")
			b.ReportMetric(r.ImprovementPct[4], "%improvement-limit4")
		}
	}
}
