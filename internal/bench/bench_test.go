package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/core"
	"cloudviews/internal/report"
	"cloudviews/internal/workload"
)

// checkFigure renders r through the named figure's registry entry — the
// text `cloudviews figures <name>` prints — and diffs it against
// testdata/figure_<name>.txt (-update rewrites it).
func checkFigure(t *testing.T, name string, r Result) {
	t.Helper()
	f, ok := Lookup(name)
	if !ok {
		t.Fatalf("no figure %q in the registry", name)
	}
	var buf bytes.Buffer
	f.Write(&buf, r)
	checkGolden(t, "figure_"+name+".txt", strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"))
}

// TestEveryFigureHasAGolden pins the registry to testdata: every figure
// but the wall-clock overheads has a golden its shape test checks.
func TestEveryFigureHasAGolden(t *testing.T) {
	for _, f := range Figures {
		_, err := os.Stat(filepath.Join("testdata", "figure_"+f.Name+".txt"))
		if f.Name == "overheads" {
			if err == nil {
				t.Error("overheads is wall-clock and must not have a golden")
			}
			continue
		}
		if err != nil {
			t.Errorf("figure %s: %v", f.Name, err)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	rows, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("clusters = %d", len(rows))
	}
	byName := map[string]ClusterOverlap{}
	for _, r := range rows {
		byName[r.Cluster] = r
	}
	// The paper's shape: all clusters except cluster3 have >45% of jobs
	// overlapping; cluster3 is the outlier.
	for _, name := range []string{"cluster1", "cluster2", "cluster4", "cluster5"} {
		if got := byName[name].Stats.PctJobsOverlapping; got < 45 {
			t.Errorf("%s: %%jobs overlapping = %.1f, want >= 45", name, got)
		}
	}
	c3 := byName["cluster3"].Stats.PctJobsOverlapping
	for _, name := range []string{"cluster1", "cluster2", "cluster4", "cluster5"} {
		if byName[name].Stats.PctJobsOverlapping <= c3 {
			t.Errorf("cluster3 (%.1f) should be the low-overlap outlier vs %s (%.1f)",
				c3, name, byName[name].Stats.PctJobsOverlapping)
		}
	}
	// Users with overlap exceed 65% on the high-overlap clusters.
	for _, name := range []string{"cluster1", "cluster2", "cluster4", "cluster5"} {
		if got := byName[name].Stats.PctUsersOverlapping; got < 65 {
			t.Errorf("%s: %%users overlapping = %.1f, want >= 65", name, got)
		}
	}
	checkFigure(t, "1", rows)
}

func TestFigure2Shapes(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PctJobsOverlapping) < 10 {
		t.Fatalf("too few VCs: %d", len(r.PctJobsOverlapping))
	}
	// Heterogeneity across VCs: some high, some low.
	if r.PctJobsOverlapping[0] < 80 {
		t.Errorf("top VC overlap = %.1f, expected a near-saturated VC", r.PctJobsOverlapping[0])
	}
	last := r.PctJobsOverlapping[len(r.PctJobsOverlapping)-1]
	if last > 60 {
		t.Errorf("bottom VC overlap = %.1f, expected low-overlap VCs to exist", last)
	}
	// Average frequencies skewed: median modest, tail high.
	if len(r.AvgFrequency) == 0 {
		t.Fatal("no frequency series")
	}
	if r.AvgFrequency[0] <= r.AvgFrequency[len(r.AvgFrequency)-1] {
		t.Error("frequency series not skewed")
	}
	checkFigure(t, "2", r)
}

func TestFigure3And4And5Shapes(t *testing.T) {
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	st := f3.Stats
	// Jobs in the largest BU carry multiple overlapping subgraphs each.
	if got := report.Median(st.OverlapsPerJob); got < 2 {
		t.Errorf("median overlaps per job = %.1f, want >= 2", got)
	}
	if len(st.OverlapsPerInput) == 0 || len(st.OverlapsPerUser) == 0 {
		t.Fatal("missing entity series")
	}

	f4 := f3.Figure4()
	if len(f4.Breakdown) < 5 {
		t.Fatalf("operator breakdown too thin: %d", len(f4.Breakdown))
	}
	var total float64
	for _, b := range f4.Breakdown {
		total += b.Pct
	}
	if total < 99.5 || total > 100.5 {
		t.Errorf("operator percentages sum to %.1f", total)
	}

	f5 := &Figure5Result{Stats: st}
	// Heavy skew: mean frequency well above median (paper: 4.2 vs 2).
	if f5.Stats.AvgFrequency <= report.Median(f5.Stats.Frequencies) {
		t.Errorf("frequency not skewed: avg %.2f vs median %.2f",
			f5.Stats.AvgFrequency, report.Median(f5.Stats.Frequencies))
	}
	// Cost ratios concentrated at the low end (most overlaps are a small
	// fraction of their job).
	low := 0
	for _, cr := range f5.Stats.CostRatios {
		if cr <= 0.5 {
			low++
		}
	}
	if float64(low)/float64(len(f5.Stats.CostRatios)) < 0.5 {
		t.Error("cost ratio distribution not bottom-heavy")
	}
	checkFigure(t, "3", f3)
	checkFigure(t, "4", f4)
	checkFigure(t, "5", f5)
}

// The §7 protocols run once per test binary: each figure's shape test and
// its frontend golden read the same runs.
var (
	productionRuns = sync.OnceValues(func() (*prodRuns, error) { return runProductionJobs(DefaultProdConfig()) })
	tpcdsQueryRuns = sync.OnceValues(func() (*tpcdsRuns, error) { return runTPCDSQueries(DefaultTPCDSConfig()) })
)

func TestProductionShapes(t *testing.T) {
	runs, err := productionRuns()
	if err != nil {
		t.Fatal(err)
	}
	r := runs.result()
	if len(r.Jobs) < 8 {
		t.Fatalf("only %d jobs in the experiment", len(r.Jobs))
	}
	// The paper's headline shape: substantial overall improvements.
	if r.TotalLatencyImprovementPct < 20 {
		t.Errorf("total latency improvement = %.1f%%, want >= 20%%", r.TotalLatencyImprovementPct)
	}
	if r.AvgLatencyImprovementPct <= 0 {
		t.Errorf("average latency improvement = %.1f%%", r.AvgLatencyImprovementPct)
	}
	if r.TotalCPUImprovementPct < 15 {
		t.Errorf("total CPU improvement = %.1f%%, want >= 15%%", r.TotalCPUImprovementPct)
	}
	// Builders exist and pay for materialization in CPU (Figure 12's
	// negative bars).
	builders := 0
	buildersSlower := 0
	for _, j := range r.Jobs {
		if j.Builder {
			builders++
			if j.CPUImprovementPct() < 0 {
				buildersSlower++
			}
		}
	}
	if builders == 0 {
		t.Fatal("no builder jobs")
	}
	if buildersSlower == 0 {
		t.Error("at least one builder should pay a CPU penalty")
	}
	// Non-builders improve on average.
	var nb, nbImp float64
	for _, j := range r.Jobs {
		if !j.Builder {
			nb++
			nbImp += j.LatencyImprovementPct()
		}
	}
	if nb > 0 && nbImp/nb <= 0 {
		t.Error("consumers should improve on average")
	}
	checkFigure(t, "11-12", r)
}

func TestTPCDSShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("tpc-ds run is slow")
	}
	runs, err := tpcdsQueryRuns()
	if err != nil {
		t.Fatal(err)
	}
	r := runs.result()
	if len(r.Queries) != 99 {
		t.Fatalf("queries = %d", len(r.Queries))
	}
	// The paper's shape: a clear majority of queries improve with a
	// conservative top-10 selection, totals in the tens of percent,
	// and both peaks bounded (some queries slow down).
	if r.Improved < 50 {
		t.Errorf("improved = %d/99, want a clear majority", r.Improved)
	}
	if r.TotalImprovementPct < 5 {
		t.Errorf("total improvement = %.1f%%, want >= 5%%", r.TotalImprovementPct)
	}
	if r.PeakImprovementPct <= 0 {
		t.Error("no query improved at all")
	}
	checkFigure(t, "13", r)
}

func TestBuildersFirst(t *testing.T) {
	specs := func(ids ...string) []core.JobSpec {
		out := make([]core.JobSpec, len(ids)/2)
		for i := range out {
			out[i].Meta = workload.JobMeta{JobID: ids[2*i], TemplateID: ids[2*i+1]}
		}
		return out
	}
	recurring := specs("p-tpl0-i1", "p-tpl0", "p-tpl1-i1", "p-tpl1", "p-tpl2-i1", "p-tpl2", "p-tpl2-i1-dup1", "p-tpl2")
	for _, tc := range []struct {
		name  string
		specs []core.JobSpec
		hints []string
		want  []string
	}{
		{"instance-0 hints rank instance-1 jobs of their template", recurring,
			[]string{"p-tpl2-i0", "p-tpl1-i0"}, []string{"p-tpl2-i1", "p-tpl2-i1-dup1", "p-tpl1-i1", "p-tpl0-i1"}},
		{"TPC-DS IDs carry no instance suffix", specs("q1", "q1", "q2", "q2", "q3", "q3"),
			[]string{"q3", "q2"}, []string{"q3", "q2", "q1"}},
		{"non-builders keep their given order", specs("q9", "q9", "q2", "q2", "q5", "q5", "q1", "q1"),
			[]string{"q5"}, []string{"q5", "q9", "q2", "q1"}},
		{"a hint that matches no job is ignored", recurring,
			[]string{"p-tpl7-i0", "p-tpl1-i0"}, []string{"p-tpl1-i1", "p-tpl0-i1", "p-tpl2-i1", "p-tpl2-i1-dup1"}},
	} {
		var got []string
		for _, s := range buildersFirst(tc.specs, tc.hints) {
			got = append(got, s.Meta.JobID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOperatorShapes: every view instance 1 built traces to its producer
// and an annotation, every replayed reuse job reproduces its outputs and
// views, reclamation evicts lowest utility first, and staleness flips
// only once the annotated templates stop building.
func TestOperatorShapes(t *testing.T) {
	r, err := RunOperator()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Views) == 0 || len(r.Replays) == 0 {
		t.Fatalf("%d views, %d replays; want both non-zero", len(r.Views), len(r.Replays))
	}
	utility := map[string]float64{}
	for _, v := range r.Views {
		utility[v.Path] = v.Utility
		if !v.Annotated || v.ProducerJobID == "" || v.Rows == 0 {
			t.Errorf("provenance %+v", v)
		}
	}
	for _, c := range r.Replays {
		if !c.SameOutputs || !c.SameViewsUsed {
			t.Errorf("replay %+v differs from its original", c)
		}
	}
	if len(r.Victims) == 0 || len(r.Victims) >= len(r.Views) {
		t.Errorf("reclaiming half of %d bytes evicted %d of %d views", r.Resident, len(r.Victims), len(r.Views))
	}
	for i := 1; i < len(r.Victims); i++ {
		if utility[r.Victims[i]] < utility[r.Victims[i-1]] {
			t.Errorf("victims out of utility order: %v", r.Victims)
		}
	}
	if r.StaleAfter1 || r.BuiltIn1 != len(r.Views) {
		t.Errorf("after instance 1: stale=%v built=%d, want false and %d", r.StaleAfter1, r.BuiltIn1, len(r.Views))
	}
	if !r.StaleAfter2 || r.BuiltIn2 != 0 {
		t.Errorf("after instance 2: stale=%v built=%d, want true and 0", r.StaleAfter2, r.BuiltIn2)
	}
	checkFigure(t, "operator", r)
}

func TestOverheadShapes(t *testing.T) {
	r, err := RunOverheads(7)
	if err != nil {
		t.Fatal(err)
	}
	if r.AnalyzerJobs == 0 || r.AnalyzerSubgraphs == 0 || r.AnalyzerWall <= 0 {
		t.Error("analyzer measurement empty")
	}
	if r.LookupAvg1Thread <= 0 || r.LookupAvg5Threads <= 0 {
		t.Error("lookup measurement empty")
	}
	// The optimizer orderings compare microsecond wall-clock timings, so a
	// load spike (the full suite runs packages in parallel) can invert
	// them spuriously; a real regression inverts them on every run.
	// Re-measure a bounded number of times before declaring failure.
	for attempt := 0; ; attempt++ {
		// Optimizing with a view to create must cost more than plain
		// optimization (the paper's +28%), and consuming a view shrinks
		// the tree so it must cost less than creating.
		if r.OptimizeCreate > r.OptimizePlain && r.OptimizeUse < r.OptimizeCreate {
			break
		}
		if attempt == 2 {
			t.Errorf("optimizer ordering: plain %v, create %v, use %v; want plain < create and use < create",
				r.OptimizePlain, r.OptimizeCreate, r.OptimizeUse)
			break
		}
		if r, err = RunOverheads(7); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "optimizer") {
		t.Error("rendering incomplete")
	}
}
