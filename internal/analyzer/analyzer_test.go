package analyzer

import (
	"context"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/expr"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

func logSchema() data.Schema {
	return data.Schema{
		{Name: "uid", Kind: data.KindInt},
		{Name: "page", Kind: data.KindString},
		{Name: "dur", Kind: data.KindFloat},
	}
}

func dimSchema() data.Schema {
	return data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "grp", Kind: data.KindString},
	}
}

type fixture struct {
	repo *workload.Repository
	ex   *exec.Executor
	// sharedAggSig is the signature of the pipeline shared by tplA/tplB.
	sharedAgg signature.Signature
}

// sharedPipeline is the subgraph that overlaps across templates A and B.
func sharedPipeline() *plan.Node {
	return plan.Scan("logs", "g1", logSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "dur"), expr.Lit(data.Float(50)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 2}})
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	cat := catalog.New()
	logs := data.NewTable("logs", "g1", logSchema(), 4)
	data.NewGenerator(5).Fill(logs, 600, 40)
	dims := data.NewTable("dims", "d1", dimSchema(), 2)
	data.NewGenerator(6).Fill(dims, 40, 40)
	misc := data.NewTable("misc", "m1", dimSchema(), 2)
	data.NewGenerator(7).Fill(misc, 40, 40)
	cat.Register(logs)
	cat.Register(dims)
	cat.Register(misc)
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	repo := workload.NewRepository()

	run := func(job, user, vc, tpl string, period int64, root *plan.Node) {
		t.Helper()
		res, err := ex.RunCtx(context.Background(), root, job, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		repo.Record(workload.JobMeta{
			JobID: job, Cluster: "c1", BusinessUnit: "bu1", VC: vc,
			User: user, TemplateID: tpl, Instance: 0, Period: period,
		}, root, res)
	}

	// Template A appears twice (j1, j4); template B shares A's pipeline
	// as a subgraph (j2); template C is disjoint (j3).
	run("j1", "u1", "vc1", "tplA", 1, sharedPipeline().Output("a"))
	run("j2", "u2", "vc1", "tplB", 7, sharedPipeline().
		HashJoin(plan.Scan("dims", "d1", dimSchema()), []int{0}, []int{0}).
		Output("b"))
	run("j3", "u3", "vc2", "tplC", 1, plan.Scan("misc", "m1", dimSchema()).
		Sort([]int{0}, nil).Output("c"))
	run("j4", "u1", "vc1", "tplA", 1, sharedPipeline().Output("a"))

	return &fixture{repo: repo, ex: ex, sharedAgg: signature.Of(sharedPipeline())}
}

func TestAnalyzeFindsOverlappingCandidates(t *testing.T) {
	f := buildFixture(t)
	an := New(f.repo).Analyze(Config{MinFrequency: 2})
	if an.TotalJobs != 4 {
		t.Errorf("TotalJobs = %d", an.TotalJobs)
	}
	byName := map[string]Candidate{}
	for _, c := range an.Candidates {
		byName[c.NormSig] = c
	}
	agg, ok := byName[f.sharedAgg.Normalized]
	if !ok {
		t.Fatal("shared agg pipeline not found as candidate")
	}
	if agg.Frequency != 3 { // j1, j2, j4
		t.Errorf("frequency = %d, want 3", agg.Frequency)
	}
	if agg.JobCount != 3 || agg.UserCount != 2 {
		t.Errorf("jobs=%d users=%d, want 3/2", agg.JobCount, agg.UserCount)
	}
	if agg.RootOp != plan.OpHashGbAgg {
		t.Errorf("root op = %v", agg.RootOp)
	}
	if agg.AvgCost <= 0 || agg.AvgLatency <= 0 || agg.AvgRows <= 0 {
		t.Errorf("missing measured stats: %+v", agg)
	}
	saving := agg.AvgCost - agg.ReadCost
	if agg.Utility <= 0 || agg.Utility != float64(agg.Frequency-1)*saving {
		t.Errorf("utility = %f, want (freq-1)*(avgCost-readCost) = %f",
			agg.Utility, float64(agg.Frequency-1)*saving)
	}
	if agg.CostRatio <= 0 || agg.CostRatio > 1 {
		t.Errorf("cost ratio = %f", agg.CostRatio)
	}
	// j3's sort pipeline appears once -> not a candidate.
	for _, c := range an.Candidates {
		if c.RootOp == plan.OpSort {
			t.Error("non-overlapping subgraph selected as candidate")
		}
	}
	// Candidates sorted by utility descending.
	for i := 1; i < len(an.Candidates); i++ {
		if an.Candidates[i-1].Utility < an.Candidates[i].Utility {
			t.Error("candidates not utility-sorted")
		}
	}
}

func TestSelectionFilters(t *testing.T) {
	f := buildFixture(t)
	a := New(f.repo)

	// Frequency filter: demanding 4+ occurrences of cross-template overlap
	// leaves only subgraphs occurring in all three A/B jobs... none have 4.
	an := a.Analyze(Config{MinFrequency: 4})
	if len(an.Selected) != 0 {
		t.Errorf("freq>=4 selected %d", len(an.Selected))
	}

	// Cost-ratio filter: 99% of job cost excludes everything.
	an = a.Analyze(Config{MinFrequency: 2, MinCostRatio: 0.99})
	if len(an.Selected) != 0 {
		t.Errorf("ratio>=0.99 selected %d", len(an.Selected))
	}

	// Extract-rooted overlaps are never selected even though scans of
	// "logs" appear in 3 jobs.
	an = a.Analyze(Config{MinFrequency: 2})
	for _, c := range an.Selected {
		if c.RootOp == plan.OpExtract || c.RootOp == plan.OpOutput {
			t.Errorf("selected unmaterializable root %v", c.RootOp)
		}
	}
	if len(an.Selected) == 0 {
		t.Fatal("default config selected nothing")
	}
}

func TestTopKAndMaxPerJob(t *testing.T) {
	f := buildFixture(t)
	a := New(f.repo)
	an := a.Analyze(Config{MinFrequency: 2, TopK: 1})
	if len(an.Selected) != 1 {
		t.Fatalf("topK=1 selected %d", len(an.Selected))
	}
	// The single selection must be the highest-utility candidate that
	// passes filters.
	best := an.Selected[0]
	an2 := a.Analyze(Config{MinFrequency: 2})
	if len(an2.Selected) <= 1 {
		t.Skip("fixture yields a single selectable candidate")
	}
	if best.Utility < an2.Selected[1].Utility {
		t.Error("topK did not pick by utility")
	}

	// MaxPerJob=1: all shared subgraphs live in the same jobs (j1/j2/j4),
	// so only one gets selected.
	an3 := a.Analyze(Config{MinFrequency: 2, MaxPerJob: 1})
	if len(an3.Selected) != 1 {
		t.Errorf("maxPerJob=1 selected %d", len(an3.Selected))
	}
}

func TestStorageBudgetPacking(t *testing.T) {
	f := buildFixture(t)
	a := New(f.repo)
	full := a.Analyze(Config{MinFrequency: 2, Strategy: PackStorageBudget, StorageBudget: 1 << 40})
	if len(full.Selected) == 0 {
		t.Fatal("unbounded budget selected nothing")
	}
	var totalBytes int64
	for _, c := range full.Selected {
		totalBytes += int64(c.AvgBytes)
	}
	// A budget below the full footprint must select fewer views and stay
	// within budget.
	budget := totalBytes - 1
	capped := a.Analyze(Config{MinFrequency: 2, Strategy: PackStorageBudget, StorageBudget: budget})
	if len(capped.Selected) >= len(full.Selected) {
		t.Errorf("capped selected %d, full %d", len(capped.Selected), len(full.Selected))
	}
	var used int64
	for _, c := range capped.Selected {
		used += int64(c.AvgBytes)
	}
	if used > budget {
		t.Errorf("packing exceeded budget: %d > %d", used, budget)
	}
}

func TestExpiryFromLineage(t *testing.T) {
	f := buildFixture(t)
	an := New(f.repo).Analyze(Config{MinFrequency: 2})
	// The shared pipeline reads "logs", which template B (weekly,
	// period 7) also consumes: expiry must cover the weekly consumer.
	for _, c := range an.Selected {
		if c.NormSig == f.sharedAgg.Normalized {
			if c.ExpiryDelta != 8 { // max period 7 + 1 slack
				t.Errorf("expiry = %d, want 8", c.ExpiryDelta)
			}
			return
		}
	}
	// If the shared agg was not selected, check it among candidates.
	for _, c := range an.Candidates {
		if c.NormSig == f.sharedAgg.Normalized && c.ExpiryDelta != 8 {
			t.Errorf("expiry = %d, want 8", c.ExpiryDelta)
		}
	}
}

func TestAnnotationsFeedMetadataService(t *testing.T) {
	f := buildFixture(t)
	an := New(f.repo).Analyze(Config{MinFrequency: 2, TopK: 2})
	if len(an.Annotations) != len(an.Selected) {
		t.Fatal("annotation count mismatch")
	}
	ms := metadata.NewService()
	ms.LoadAnalysis(an.Annotations)
	// Jobs reading "logs" must discover the shared-pipeline annotation
	// via the inverted index.
	rel, err := ms.TryRelevantViews("vc1", []string{"logs"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rel {
		if r.NormSig == f.sharedAgg.Normalized {
			found = true
			if r.AvgRuntime <= 0 {
				t.Error("annotation lost mined runtime")
			}
			if r.ExpiryDelta != 8 {
				t.Errorf("annotation expiry = %d", r.ExpiryDelta)
			}
		}
	}
	if !found {
		t.Error("inverted index lookup missed the shared pipeline")
	}
	// Template tags work too.
	if rel, err := ms.TryRelevantViews("vc1", []string{"tplA"}); err != nil || len(rel) == 0 {
		t.Errorf("template tag lookup missed: %v", err)
	}
}

func TestCoordinationOrder(t *testing.T) {
	f := buildFixture(t)
	an := New(f.repo).Analyze(Config{MinFrequency: 2, TopK: 1})
	if len(an.JobOrder) == 0 {
		t.Fatal("no job order produced")
	}
	// The builder must be one of the jobs containing the selected view,
	// specifically the one with the smallest runtime.
	sel := an.Selected[0]
	jobRuntime := map[string]float64{}
	for _, o := range f.repo.Snapshot() {
		if o.JobLatency > jobRuntime[o.Job.JobID] {
			jobRuntime[o.Job.JobID] = o.JobLatency
		}
	}
	best := ""
	for _, j := range sel.Jobs {
		if best == "" || jobRuntime[j] < jobRuntime[best] {
			best = j
		}
	}
	if an.JobOrder[0] != best {
		t.Errorf("builder = %s, want shortest job %s", an.JobOrder[0], best)
	}
}

func TestWindowAndScopeFilters(t *testing.T) {
	f := buildFixture(t)
	a := New(f.repo)
	// Out-of-window analysis sees nothing.
	an := a.Analyze(Config{WindowFrom: 5, WindowTo: 9, MinFrequency: 2})
	if an.TotalJobs != 0 || len(an.Candidates) != 0 {
		t.Errorf("out-of-window: jobs=%d cands=%d", an.TotalJobs, len(an.Candidates))
	}
	// VC filter: vc2 only contains the disjoint job.
	an = a.Analyze(Config{VCs: []string{"vc2"}, MinFrequency: 2})
	if len(an.Candidates) != 0 {
		t.Errorf("vc2 candidates = %d", len(an.Candidates))
	}
	// Cluster filter for an unknown cluster sees nothing.
	an = a.Analyze(Config{Clusters: []string{"nope"}, MinFrequency: 2})
	if an.TotalJobs != 0 {
		t.Error("unknown cluster should see no jobs")
	}
}

func TestElectDesignPopularityAndMultiDesign(t *testing.T) {
	hash4 := plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 4}}
	hash8 := plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{1}, Count: 8}}
	obs := []workload.Observation{
		{Props: hash4}, {Props: hash4}, {Props: hash8},
	}
	props, multi := electDesign(obs)
	if !multi {
		t.Error("multi-design not flagged")
	}
	if props.Part.Count != 4 {
		t.Errorf("elected %+v, want the popular hash4", props.Part)
	}
	// Single design: not multi.
	props, multi = electDesign(obs[:2])
	if multi || props.Part.Count != 4 {
		t.Errorf("single design wrong: %+v %v", props, multi)
	}
}

func TestOverlapStats(t *testing.T) {
	f := buildFixture(t)
	st := New(f.repo).OverlapStats(Config{})
	if st.TotalJobs != 4 || st.TotalUsers != 3 {
		t.Errorf("jobs=%d users=%d", st.TotalJobs, st.TotalUsers)
	}
	// j1, j2, j4 overlap; j3 does not: 75% of jobs.
	if st.PctJobsOverlapping != 75 {
		t.Errorf("PctJobsOverlapping = %.1f, want 75", st.PctJobsOverlapping)
	}
	// u1, u2 overlap; u3 does not.
	if st.PctUsersOverlapping < 66 || st.PctUsersOverlapping > 67 {
		t.Errorf("PctUsersOverlapping = %.1f", st.PctUsersOverlapping)
	}
	if st.PctSubgraphsOverlapping <= 0 {
		t.Error("no subgraph overlap measured")
	}
	// vc1 has all overlapping jobs, vc2 none.
	if st.VCJobOverlapPct["vc1"] != 100 || st.VCJobOverlapPct["vc2"] != 0 {
		t.Errorf("VC overlap = %v", st.VCJobOverlapPct)
	}
	// The agg operator is among the overlapping roots.
	if st.OperatorPct[plan.OpHashGbAgg] <= 0 {
		t.Errorf("operator breakdown = %v", st.OperatorPct)
	}
	// Percentages sum to ~100.
	var sum float64
	for _, p := range st.OperatorPct {
		sum += p
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("operator pct sum = %.2f", sum)
	}
	if st.AvgFrequency < 2 {
		t.Errorf("avg frequency = %.2f", st.AvgFrequency)
	}
	if len(st.Frequencies) == 0 || len(st.Runtimes) == 0 || len(st.CostRatios) == 0 {
		t.Error("missing figure-5 distributions")
	}
	// Empty workload edge case.
	empty := ComputeOverlapStats(nil)
	if empty.TotalJobs != 0 || empty.PctJobsOverlapping != 0 {
		t.Error("empty stats wrong")
	}
}
