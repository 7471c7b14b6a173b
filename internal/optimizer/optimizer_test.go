package optimizer

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
)

func logSchema() data.Schema {
	return data.Schema{
		{Name: "uid", Kind: data.KindInt},
		{Name: "page", Kind: data.KindString},
		{Name: "dur", Kind: data.KindFloat},
	}
}

type testEnv struct {
	cat  *catalog.Catalog
	st   *storage.Store
	meta *metadata.Service
	ex   *exec.Executor
	opt  *Optimizer
}

func newEnv(t testing.TB) *testEnv {
	t.Helper()
	cat := catalog.New()
	tab := data.NewTable("logs", "g1", logSchema(), 4)
	data.NewGenerator(11).Fill(tab, 400, 30)
	cat.Register(tab)
	st := storage.NewStore()
	meta := metadata.NewService()
	return &testEnv{
		cat:  cat,
		st:   st,
		meta: meta,
		ex:   &exec.Executor{Catalog: cat, Store: st},
		opt: &Optimizer{
			Meta:                 meta,
			Est:                  &Estimator{Catalog: cat},
			MaxMaterializePerJob: 1,
		},
	}
}

// relevant is the metadata lookup of a job reading "logs"; with no fault
// hook installed it cannot fail.
func (env *testEnv) relevant(t testing.TB) []metadata.Annotation {
	t.Helper()
	anns, err := env.meta.TryRelevantViews("vc1", []string{"logs"})
	if err != nil {
		t.Fatal(err)
	}
	return anns
}

// pipeline is the shared computation used in most tests.
func pipeline(guid string) *plan.Node {
	return plan.Scan("logs", guid, logSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "dur"), expr.Lit(data.Float(100)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 2}})
}

// annotate installs an annotation for the pipeline's agg subgraph.
func annotate(t testing.TB, env *testEnv, n *plan.Node, offline bool) signature.Signature {
	t.Helper()
	sig := signature.Of(n)
	env.meta.LoadAnalysis([]metadata.Annotation{{
		NormSig:     sig.Normalized,
		Tags:        []string{"logs"},
		Props:       plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 4}},
		AvgRuntime:  50,
		ExpiryDelta: 3,
		Offline:     offline,
	}})
	return sig
}

func TestEstimatorBasics(t *testing.T) {
	env := newEnv(t)
	est := env.opt.Est
	scan := plan.Scan("logs", "g1", logSchema())
	e := est.Estimate(scan)
	if e.Rows != 400 {
		t.Errorf("scan estimate = %d rows, want catalog's 400", e.Rows)
	}
	filt := scan.Filter(expr.B(expr.OpGt, expr.C(0, "uid"), expr.Lit(data.Int(0))))
	ef := est.Estimate(filt)
	if ef.Rows != 40 { // fixed 10% selectivity
		t.Errorf("filter estimate = %d, want 40", ef.Rows)
	}
	if ef.Cost <= e.Cost {
		t.Error("filter must add cost")
	}
	// Unknown table falls back to the default guess.
	unknown := est.Estimate(plan.Scan("mystery", "g", logSchema()))
	if unknown.Rows != estDefaultTableRows {
		t.Errorf("unknown table estimate = %d", unknown.Rows)
	}
	// View scans report actual stats.
	vs := plan.ViewScan("/v/1", logSchema(), "p", "n")
	vs.ViewRows, vs.ViewBytes = 7, 700
	ev := est.Estimate(vs)
	if ev.Rows != 7 || !ev.Actual {
		t.Errorf("view estimate = %+v", ev)
	}
}

func TestFirstJobBuildsSecondJobReuses(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	sig := annotate(t, env, agg, false)

	// Job 1: no view exists yet -> follow-up phase injects Materialize.
	job1 := agg.Output("o")
	anns := env.relevant(t)
	p1, d1 := env.opt.Optimize(job1, "job1", anns, 0)
	if len(d1.ViewsBuilt) != 1 || len(d1.ViewsUsed) != 0 {
		t.Fatalf("job1 decision: built=%d used=%d", len(d1.ViewsBuilt), len(d1.ViewsUsed))
	}
	if d1.ViewsBuilt[0].PreciseSig != sig.Precise {
		t.Error("built wrong signature")
	}
	res1, err := env.ex.RunCtx(context.Background(), p1, "job1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the job manager reporting the view.
	v, err := env.st.Get(d1.ViewsBuilt[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	env.meta.ReportMaterialized(metadata.ViewInfo{
		PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
		Schema: v.Schema, Props: v.Props, Rows: v.Rows, Bytes: v.LogicalBytes, EncodedBytes: v.Bytes,
		ProducerJobID: "job1", ExpiresAt: 100,
	})

	// Job 2 (same recurring instance): plan search rewrites to the view.
	job2 := pipeline("g1").Output("o")
	p2, d2 := env.opt.Optimize(job2, "job2", anns, 1)
	if len(d2.ViewsUsed) != 1 || len(d2.ViewsBuilt) != 0 {
		t.Fatalf("job2 decision: used=%d built=%d", len(d2.ViewsUsed), len(d2.ViewsBuilt))
	}
	res2, err := env.ex.RunCtx(context.Background(), p2, "job2", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.RowsEqual(res1.Outputs["o"], res2.Outputs["o"]) {
		t.Error("reuse changed job output")
	}
	if res2.TotalCPU >= res1.TotalCPU {
		t.Errorf("reuse CPU %.1f should beat build CPU %.1f", res2.TotalCPU, res1.TotalCPU)
	}
	// The estimated cost of the rewritten plan must be lower too.
	if d2.EstimatedCost >= d1.EstimatedCost {
		t.Error("rewritten plan should be estimated cheaper")
	}
}

func TestNewInstanceDoesNotMatchOldView(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	annotate(t, env, agg, false)
	anns := env.relevant(t)

	// Build the view for GUID g1.
	p1, d1 := env.opt.Optimize(pipeline("g1").Output("o"), "job1", anns, 0)
	if _, err := env.ex.RunCtx(context.Background(), p1, "job1", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _ := env.st.Get(d1.ViewsBuilt[0].Path)
	env.meta.ReportMaterialized(metadata.ViewInfo{
		PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
		Rows: v.Rows, Bytes: v.LogicalBytes, EncodedBytes: v.Bytes, ExpiresAt: 100,
	})

	// Next recurring instance: new data delivered.
	if err := env.cat.Deliver("logs", "g2", func(nt *data.Table) {
		data.NewGenerator(12).Fill(nt, 400, 30)
	}); err != nil {
		t.Fatal(err)
	}
	// Same template, new GUID: the normalized signature matches the
	// annotation, but the precise signature differs, so the optimizer
	// must *build* (not reuse) — the stale view can never be read.
	p2, d2 := env.opt.Optimize(pipeline("g2").Output("o"), "job2", anns, 1)
	if len(d2.ViewsUsed) != 0 {
		t.Fatal("stale view reused across data versions")
	}
	if len(d2.ViewsBuilt) != 1 {
		t.Fatal("new instance should build its own view")
	}
	if _, err := env.ex.RunCtx(context.Background(), p2, "job2", 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCostBasedRejection(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	sig := annotate(t, env, agg, false)
	anns := env.relevant(t)
	// Register a view whose read cost dwarfs recomputation.
	env.meta.ReportMaterialized(metadata.ViewInfo{
		PreciseSig: sig.Precise, NormSig: sig.Normalized, Path: "/v/huge",
		Rows: 50_000_000, Bytes: 4_000_000_000, ExpiresAt: 100,
	})
	p, d := env.opt.Optimize(pipeline("g1").Output("o"), "job", anns, 0)
	if len(d.ViewsUsed) != 0 {
		t.Fatal("optimizer must reject an over-expensive view")
	}
	if len(d.ViewsRejected) != 1 || d.ViewsRejected[0] != sig.Precise {
		t.Errorf("rejected = %v", d.ViewsRejected)
	}
	// And it must not rebuild a view that already exists.
	if len(d.ViewsBuilt) != 0 {
		t.Error("must not rebuild existing view")
	}
	// The job still runs fine (recomputes).
	if _, err := env.ex.RunCtx(context.Background(), p, "job", 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPerJobMaterializationLimit(t *testing.T) {
	env := newEnv(t)
	// Annotate two nested subgraphs: the filter and the agg above it.
	filt := plan.Scan("logs", "g1", logSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "dur"), expr.Lit(data.Float(100))))
	agg := filt.ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 2}})
	sigF := signature.Of(filt)
	sigA := signature.Of(agg)
	env.meta.LoadAnalysis([]metadata.Annotation{
		{NormSig: sigF.Normalized, Tags: []string{"logs"}, AvgRuntime: 10},
		{NormSig: sigA.Normalized, Tags: []string{"logs"}, AvgRuntime: 10},
	})
	anns := env.relevant(t)

	// Limit 1: bottom-up order materializes the *smaller* subgraph (filter).
	_, d := env.opt.Optimize(agg.Output("o"), "job", anns, 0)
	if len(d.ViewsBuilt) != 1 {
		t.Fatalf("built %d views, want 1", len(d.ViewsBuilt))
	}
	if d.ViewsBuilt[0].PreciseSig != sigF.Precise {
		t.Error("bottom-up order should pick the smaller subgraph first")
	}

	// Limit 2 on a fresh metadata state: both get materialized.
	env2 := newEnv(t)
	env2.meta.LoadAnalysis([]metadata.Annotation{
		{NormSig: sigF.Normalized, Tags: []string{"logs"}, AvgRuntime: 10},
		{NormSig: sigA.Normalized, Tags: []string{"logs"}, AvgRuntime: 10},
	})
	env2.opt.MaxMaterializePerJob = 2
	p2, d2 := env2.opt.Optimize(agg.Output("o"), "job", env2.relevant(t), 0)
	if len(d2.ViewsBuilt) != 2 {
		t.Fatalf("built %d views, want 2", len(d2.ViewsBuilt))
	}
	// Nested materializations execute correctly.
	res, err := env2.ex.RunCtx(context.Background(), p2, "job", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MaterializedPaths) != 2 {
		t.Errorf("executed materializations = %v", res.MaterializedPaths)
	}
}

func TestConcurrentBuildLockPreventsDoubleMaterialization(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	annotate(t, env, agg, false)
	anns := env.relevant(t)

	// Two concurrent jobs optimized before either executes: only the
	// first gets to materialize (build-build synchronization).
	_, d1 := env.opt.Optimize(pipeline("g1").Output("o"), "jobA", anns, 0)
	_, d2 := env.opt.Optimize(pipeline("g1").Output("o"), "jobB", anns, 0)
	if len(d1.ViewsBuilt) != 1 {
		t.Error("jobA should build")
	}
	if len(d2.ViewsBuilt) != 0 {
		t.Error("jobB should be locked out")
	}
}

func TestNoAnnotationsMeansUntouchedPlan(t *testing.T) {
	env := newEnv(t)
	job := pipeline("g1").Output("o")
	p, d := env.opt.Optimize(job, "job", nil, 0)
	if p != job {
		t.Error("plan should be returned unchanged with no annotations")
	}
	if len(d.ViewsBuilt)+len(d.ViewsUsed) != 0 {
		t.Error("no decisions expected")
	}
}

func TestMaterializeEnforcesAnnotatedPhysicalDesign(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	annotate(t, env, agg, false)
	anns := env.relevant(t)
	p, d := env.opt.Optimize(agg.Output("o"), "job", anns, 0)
	if _, err := env.ex.RunCtx(context.Background(), p, "job", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, err := env.st.Get(d.ViewsBuilt[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if v.PartitionCount() != 4 || v.Props.Part.Kind != plan.PartHash {
		t.Errorf("view design not enforced: %d partitions, %v", v.PartitionCount(), v.Props.Part.Kind)
	}
}

func TestOfflineViewPlans(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	sig := annotate(t, env, agg, true) // offline mode
	anns := env.relevant(t)

	plans, intents := env.opt.OfflineViewPlans(agg.Output("o"), "offline-job", anns, 0)
	if len(plans) != 1 || len(intents) != 1 {
		t.Fatalf("offline plans = %d, intents = %d", len(plans), len(intents))
	}
	// The offline plan materializes the view without running the full job.
	res, err := env.ex.RunCtx(context.Background(), plans[0], "offline-job", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MaterializedPaths) != 1 {
		t.Fatal("offline plan did not materialize")
	}
	if v, err := env.st.Get(res.MaterializedPaths[0]); err != nil || v.PreciseSig != sig.Precise {
		t.Error("view not in store after offline run")
	}
	// Second call: lock/exists checks prevent duplicates.
	env.meta.ReportMaterialized(metadata.ViewInfo{PreciseSig: sig.Precise, Path: "/v", ExpiresAt: 10})
	plans2, _ := env.opt.OfflineViewPlans(agg.Output("o"), "offline-2", anns, 1)
	if len(plans2) != 0 {
		t.Error("offline must not rebuild existing views")
	}
	// Online annotations are ignored by the offline extractor.
	annotate(t, env, agg, false)
	plans3, _ := env.opt.OfflineViewPlans(agg.Output("o"), "offline-3",
		env.relevant(t), 2)
	if len(plans3) != 0 {
		t.Error("online annotations must not produce offline plans")
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	env := newEnv(t)
	agg := pipeline("g1")
	annotate(t, env, agg, false)
	anns := env.relevant(t)
	job := agg.Output("o")
	before := job.EncodeString(expr.Precise)
	_, _ = env.opt.Optimize(job, "job", anns, 0)
	if job.EncodeString(expr.Precise) != before {
		t.Error("Optimize mutated the input plan")
	}
	if plan.Count(job) != 5 {
		t.Error("input plan structure changed")
	}
}

func TestEstimatorOperatorCoverage(t *testing.T) {
	env := newEnv(t)
	est := env.opt.Est
	scan := plan.Scan("logs", "g1", logSchema()) // 400 rows in catalog

	// Join: foreign-key assumption keeps probe cardinality.
	j := scan.HashJoin(plan.Scan("logs", "g1", logSchema()), []int{0}, []int{0})
	ej := est.Estimate(j)
	if ej.Rows != 400 {
		t.Errorf("join estimate = %d", ej.Rows)
	}
	if ej.Cost <= 2*est.Estimate(scan).Cost {
		t.Error("join cost must include build side")
	}

	// Aggregate: fixed reduction.
	agg := scan.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 0}})
	if got := est.Estimate(agg).Rows; got != 40 {
		t.Errorf("agg estimate = %d", got)
	}

	// Top clamps.
	if got := est.Estimate(scan.Top(5)).Rows; got != 5 {
		t.Errorf("top estimate = %d", got)
	}
	if got := est.Estimate(scan.Top(1 << 40)).Rows; got != 400 {
		t.Errorf("top overclamp = %d", got)
	}

	// Union adds.
	u := scan.UnionAll(plan.Scan("logs", "g1", logSchema()))
	if got := est.Estimate(u).Rows; got != 800 {
		t.Errorf("union estimate = %d", got)
	}

	// Process keeps cardinality, costs heavily.
	pr := scan.Process("udo", "h")
	ep := est.Estimate(pr)
	if ep.Rows != 400 {
		t.Errorf("process estimate = %d", ep.Rows)
	}
	if ep.Cost <= est.Estimate(scan).Cost+400 {
		t.Error("UDO cost too cheap in estimate")
	}

	// Sort/exchange/output pass cardinality through.
	for _, n := range []*plan.Node{scan.Sort([]int{0}, nil), scan.Gather(), scan.Output("o")} {
		if got := est.Estimate(n).Rows; got != 400 {
			t.Errorf("%v estimate = %d", n.Kind, got)
		}
	}

	// ViewReadCost is monotone in rows and bytes.
	if ViewReadCost(100, 1000) >= ViewReadCost(1000, 1000) {
		t.Error("read cost not monotone in rows")
	}
	if ViewReadCost(100, 1000) >= ViewReadCost(100, 100000) {
		t.Error("read cost not monotone in bytes")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	// Optimizing an already-optimized plan must be stable: the rewritten
	// plan reuses the same views and builds nothing new.
	env := newEnv(t)
	agg := pipeline("g1")
	annotate(t, env, agg, false)
	anns := env.relevant(t)
	p1, _ := env.opt.Optimize(pipeline("g1").Output("o"), "job1", anns, 0)
	if _, err := env.ex.RunCtx(context.Background(), p1, "job1", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _ := env.st.Get(storageLookup(env, t))
	env.meta.ReportMaterialized(metadata.ViewInfo{
		PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
		Rows: v.Rows, Bytes: v.LogicalBytes, EncodedBytes: v.Bytes, ExpiresAt: 100,
	})
	p2, d2 := env.opt.Optimize(pipeline("g1").Output("o"), "job2", anns, 1)
	if len(d2.ViewsUsed) != 1 {
		t.Fatal("no reuse")
	}
	// Second optimization of the rewritten plan: no further changes.
	p3, d3 := env.opt.Optimize(p2, "job3", anns, 2)
	if len(d3.ViewsBuilt) != 0 {
		t.Error("re-optimization built views")
	}
	if p3.EncodeString(expr.Precise) != p2.EncodeString(expr.Precise) {
		t.Error("re-optimization changed an already-optimal plan")
	}
}

// storageLookup finds the single stored view's path.
func storageLookup(env *testEnv, t *testing.T) string {
	t.Helper()
	vs := env.st.Views()
	if len(vs) != 1 {
		t.Fatalf("store has %d views", len(vs))
	}
	return vs[0].Path
}

func TestInvertedIndexFalsePositivesAreHarmless(t *testing.T) {
	// §6.1: the metadata lookup may return annotations whose signatures do
	// not occur in the job (tag collisions). The optimizer must match
	// actual signatures and leave the plan untouched.
	env := newEnv(t)
	env.meta.LoadAnalysis([]metadata.Annotation{{
		NormSig:    "ffff-not-in-this-job",
		Tags:       []string{"logs"}, // tag matches the job's input
		AvgRuntime: 10,
	}})
	anns := env.relevant(t)
	if len(anns) != 1 {
		t.Fatalf("lookup = %d", len(anns))
	}
	job := pipeline("g1").Output("o")
	p, d := env.opt.Optimize(job, "job", anns, 0)
	if len(d.ViewsBuilt)+len(d.ViewsUsed)+len(d.ViewsRejected) != 0 {
		t.Errorf("false positive caused decisions: %+v", d)
	}
	if p.EncodeString(expr.Precise) != job.EncodeString(expr.Precise) {
		t.Error("false positive changed the plan")
	}
	// And no build lock was taken.
	if _, _, locks, _, _ := env.meta.Stats(); locks != 0 {
		t.Errorf("locks = %d", locks)
	}
}
