package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

func salesSchema() data.Schema {
	return data.Schema{
		{Name: "item", Kind: data.KindInt},
		{Name: "store", Kind: data.KindInt},
		{Name: "qty", Kind: data.KindInt},
		{Name: "price", Kind: data.KindFloat},
	}
}

func itemSchema() data.Schema {
	return data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "brand", Kind: data.KindString},
	}
}

// env builds an executor with a small deterministic sales/item catalog.
func env(t testing.TB) *Executor {
	t.Helper()
	cat := catalog.New()
	sales := data.NewTable("sales", "sales-v1", salesSchema(), 4)
	rr := 0
	for i := 0; i < 200; i++ {
		sales.AppendHash(data.Row{
			data.Int(int64(i % 20)),
			data.Int(int64(i % 5)),
			data.Int(int64(1 + i%3)),
			data.Float(float64(i%10) + 0.5),
		}, []int{0}, &rr)
	}
	items := data.NewTable("items", "items-v1", itemSchema(), 2)
	for i := 0; i < 20; i++ {
		items.AppendHash(data.Row{data.Int(int64(i)), data.String_("brand_" + string(rune('a'+i%4)))}, []int{0}, &rr)
	}
	cat.Register(sales)
	cat.Register(items)
	return &Executor{Catalog: cat, Store: storage.NewStore()}
}

func TestExtractAndGUIDMismatch(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).Output("o")
	res, err := e.RunCtx(context.Background(), p, "j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 200 {
		t.Errorf("scan output %d rows, want 200", len(res.Outputs["o"]))
	}
	// Plan compiled against stale GUID must fail.
	stale := plan.Scan("sales", "sales-v0", salesSchema()).Output("o")
	if _, err := e.RunCtx(context.Background(), stale, "j2", 0, 0); err == nil {
		t.Error("stale GUID should fail")
	}
	// Unknown table fails.
	missing := plan.Scan("nope", "g", salesSchema()).Output("o")
	if _, err := e.RunCtx(context.Background(), missing, "j3", 0, 0); err == nil {
		t.Error("missing table should fail")
	}
}

func TestFilterProject(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.Eq(expr.C(1, "store"), expr.Lit(data.Int(2)))).
		Project([]string{"item", "rev"}, []expr.Expr{
			expr.C(0, "item"),
			expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
		}).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Outputs["o"]
	if len(rows) != 40 { // store = i%5 == 2 -> 40 of 200
		t.Errorf("filter kept %d rows, want 40", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("projected row has %d cols", len(r))
		}
		if r[1].K != data.KindFloat {
			t.Errorf("rev kind = %v", r[1].K)
		}
	}
}

func TestExchangeRepartitions(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).ShuffleHash([]int{1}, 7).Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeStats[p.Children[0]].DOP != 7 {
		t.Errorf("exchange DOP = %d, want 7", res.NodeStats[p.Children[0]].DOP)
	}
	if len(res.Outputs["o"]) != 200 {
		t.Error("exchange lost rows")
	}
	// Gather to one partition.
	g := plan.Scan("sales", "sales-v1", salesSchema()).Gather().Output("o")
	res, err = e.RunCtx(context.Background(), g, "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeStats[g.Children[0]].DOP != 1 {
		t.Error("gather should have DOP 1")
	}
	// Round robin balances.
	rrp := plan.Scan("sales", "sales-v1", salesSchema()).
		Exchange(plan.Partitioning{Kind: plan.PartRoundRobin, Count: 4}).Output("o")
	res, err = e.RunCtx(context.Background(), rrp, "j3", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 200 {
		t.Error("round robin lost rows")
	}
}

func TestHashJoin(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		HashJoin(plan.Scan("items", "items-v1", itemSchema()), []int{0}, []int{0}).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Outputs["o"]
	if len(rows) != 200 { // every sale matches exactly one item
		t.Errorf("join produced %d rows, want 200", len(rows))
	}
	for _, r := range rows {
		if len(r) != 6 {
			t.Fatalf("join row width %d, want 6", len(r))
		}
		if !data.Equal(r[0], r[4]) {
			t.Errorf("join key mismatch: %v", r)
		}
	}
}

func TestJoinHashCollisionSafety(t *testing.T) {
	// Rows whose keys differ must not join even if their hashes collide;
	// verify by joining on string keys with equal hash not possible to
	// force, so instead verify no cross-key pairs exist in output.
	e := env(t)
	p := plan.Scan("items", "items-v1", itemSchema()).
		HashJoin(plan.Scan("items", "items-v1", itemSchema()), []int{0}, []int{0}).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 20 {
		t.Errorf("self join rows = %d, want 20", len(res.Outputs["o"]))
	}
}

func TestHashAggMatchesStreamAgg(t *testing.T) {
	e := env(t)
	aggs := []plan.AggSpec{
		{Fn: plan.AggSum, Col: 2},
		{Fn: plan.AggCount, Col: 2},
		{Fn: plan.AggMin, Col: 3},
		{Fn: plan.AggMax, Col: 3},
		{Fn: plan.AggAvg, Col: 3},
	}
	h := plan.Scan("sales", "sales-v1", salesSchema()).HashAgg([]int{0}, aggs).Output("o")
	s := plan.Scan("sales", "sales-v1", salesSchema()).StreamAgg([]int{0}, aggs).Output("o")
	rh, err := e.RunCtx(context.Background(), h, "j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.RunCtx(context.Background(), s, "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.RowsEqual(rh.Outputs["o"], rs.Outputs["o"]) {
		t.Error("hash agg and stream agg disagree")
	}
	if len(rh.Outputs["o"]) != 20 {
		t.Errorf("agg groups = %d, want 20", len(rh.Outputs["o"]))
	}
}

func TestAggNullHandling(t *testing.T) {
	cat := catalog.New()
	tab := data.NewTable("t", "g", data.Schema{
		{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindInt},
	}, 1)
	rr := 0
	tab.AppendHash(data.Row{data.Int(1), data.Null()}, nil, &rr)
	tab.AppendHash(data.Row{data.Int(1), data.Int(10)}, nil, &rr)
	cat.Register(tab)
	e := &Executor{Catalog: cat, Store: storage.NewStore()}
	p := plan.Scan("t", "g", tab.Schema).HashAgg([]int{0}, []plan.AggSpec{
		{Fn: plan.AggSum, Col: 1}, {Fn: plan.AggCount, Col: 1}, {Fn: plan.AggMin, Col: 1},
	}).Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Outputs["o"][0]
	if r[1].AsInt() != 10 {
		t.Errorf("sum skipping null = %v", r[1])
	}
	if r[2].AsInt() != 2 { // count(*) semantics: counts rows
		t.Errorf("count = %v", r[2])
	}
	if r[3].AsInt() != 10 {
		t.Errorf("min skipping null = %v", r[3])
	}
}

func TestSortTopUnion(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		Sort([]int{3}, []bool{true}).
		Top(5).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Outputs["o"]
	if len(rows) != 5 {
		t.Fatalf("top kept %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][3].AsFloat() < rows[i][3].AsFloat() {
			t.Error("not sorted descending")
		}
	}
	u := plan.Scan("items", "items-v1", itemSchema()).
		UnionAll(plan.Scan("items", "items-v1", itemSchema())).
		Output("o")
	res, err = e.RunCtx(context.Background(), u, "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 40 {
		t.Errorf("union rows = %d, want 40", len(res.Outputs["o"]))
	}
}

func TestProcessAndReduceDeterminism(t *testing.T) {
	e := env(t)
	mk := func(hash string) *plan.Node {
		return plan.Scan("items", "items-v1", itemSchema()).Process("scrub", hash).Output("o")
	}
	r1, err := e.RunCtx(context.Background(), mk("v1"), "j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.RunCtx(context.Background(), mk("v1"), "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := e.RunCtx(context.Background(), mk("v2"), "j3", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.RowsEqual(r1.Outputs["o"], r2.Outputs["o"]) {
		t.Error("same UDO code must be deterministic")
	}
	if data.RowsEqual(r1.Outputs["o"], r3.Outputs["o"]) {
		t.Error("different UDO code must change output")
	}
	// Reduce appends the same value to all rows of a group.
	red := plan.Scan("items", "items-v1", itemSchema()).Reduce("agg", "h", []int{1}).Output("o")
	rr, err := e.RunCtx(context.Background(), red, "j4", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	byBrand := map[string]data.Value{}
	for _, r := range rr.Outputs["o"] {
		brand := r[1].S
		if prev, ok := byBrand[brand]; ok && !data.Equal(prev, r[2]) {
			t.Errorf("group %s got different reduce values", brand)
		}
		byBrand[brand] = r[2]
	}
}

func TestSpoolSharedSubtreeRunsOnce(t *testing.T) {
	e := env(t)
	shared := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
		Spool()
	top := shared.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}}).
		HashJoin(shared, []int{0}, []int{0}).
		Output("o")
	res, err := e.RunCtx(context.Background(), top, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The filter node must appear once in stats (executed once).
	filterCount := 0
	for n := range res.NodeStats {
		if n.Kind == plan.OpFilter {
			filterCount++
		}
	}
	if filterCount != 1 {
		t.Errorf("filter executed %d times, want 1", filterCount)
	}
	if len(res.Outputs["o"]) == 0 {
		t.Error("empty join output")
	}
}

func TestMaterializeAndViewScanEquivalence(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}})
	sig := signature.Of(base)
	props := plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 3},
		Sort: plan.SortOrder{Cols: []int{0}},
	}
	path := storage.PathFor(sig.Precise, "builder")

	// Builder job: materialize + output.
	builder := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("o")
	var published *storage.View
	e.OnViewMaterialized = func(v *storage.View) { published = v }
	resB, err := e.RunCtx(context.Background(), builder, "builder", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if published == nil || published.Path != path {
		t.Fatal("early materialization hook not fired")
	}
	if published.ProducerJobID != "builder" {
		t.Errorf("provenance wrong: %+v", published)
	}
	if len(resB.MaterializedPaths) != 1 {
		t.Errorf("MaterializedPaths = %v", resB.MaterializedPaths)
	}
	// Physical design enforced (decode the at-rest payload to check).
	v, parts, err := e.Store.ConsumeCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if v.PartitionCount() != 3 || len(parts) != 3 {
		t.Errorf("view has %d partitions, want 3", len(parts))
	}
	for _, part := range parts {
		for i := 1; i < len(part); i++ {
			if data.Compare(part[i-1][0], part[i][0]) > 0 {
				t.Error("view partition not sorted per design")
			}
		}
	}

	// Consumer job: read the view; result must equal recomputation.
	consumer := plan.ViewScan(path, base.Schema(), sig.Precise, sig.Normalized).Output("o")
	resC, err := e.RunCtx(context.Background(), consumer, "consumer", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.RowsEqual(resB.Outputs["o"], resC.Outputs["o"]) {
		t.Error("view scan result differs from recomputation")
	}
	// And reading the view must be cheaper than recomputing.
	if resC.TotalCPU >= resB.TotalCPU {
		t.Errorf("view read CPU %.1f >= recompute CPU %.1f", resC.TotalCPU, resB.TotalCPU)
	}
	// Missing view fails.
	bad := plan.ViewScan("/views/none", base.Schema(), "x", "y").Output("o")
	if _, err := e.RunCtx(context.Background(), bad, "j", 0, 0); err == nil {
		t.Error("missing view should fail")
	}
}

// crashKind is a FaultHook that permanently crashes every vertex of one
// operator kind (the error carries no Transient marker).
type crashKind struct{ kind plan.OpKind }

func (c crashKind) VertexDone(_, _ string, k plan.OpKind, _ int) error {
	if k == c.kind {
		return errors.New("injected vertex failure")
	}
	return nil
}

func (c crashKind) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

func TestFailureInjectionAndEarlyMaterializationSurvives(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		HashAgg([]int{1}, []plan.AggSpec{{Fn: plan.AggCount, Col: 0}})
	sig := signature.Of(base)
	path := storage.PathFor(sig.Precise, "failing")
	p := base.Materialize(path, sig.Precise, sig.Normalized, plan.PhysicalProps{}).
		Sort([]int{0}, nil).
		Output("o")
	// Fail right after the sort: the view was already written (early
	// materialization acts as a checkpoint, paper §6.4 / §8). The crash is
	// permanent — no Transient marker — so the retry loop does not save it.
	e.Faults = crashKind{plan.OpSort}
	defer func() { e.Faults = nil }()
	if _, err := e.RunCtx(context.Background(), p, "failing", 0, 0); err == nil {
		t.Fatal("expected injected failure")
	}
	if _, err := e.Store.Get(path); err != nil {
		t.Error("early-materialized view should survive the job failure")
	}
}

func TestStatsAccounting(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}}).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeStats) != 5 {
		t.Fatalf("stats for %d nodes, want 5", len(res.NodeStats))
	}
	// Cumulative cost at root equals total.
	rootStats := res.NodeStats[p]
	if diff := rootStats.CumulativeCost - res.TotalCPU; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cumulative %.3f != total %.3f", rootStats.CumulativeCost, res.TotalCPU)
	}
	// Latency is monotone up the plan: every child's latency is at most
	// its parent's.
	for cur := p; len(cur.Children) > 0; cur = cur.Children[0] {
		child := cur.Children[0]
		if res.NodeStats[child].Latency > res.NodeStats[cur].Latency {
			t.Errorf("child latency %.3f exceeds parent %.3f at %v",
				res.NodeStats[child].Latency, res.NodeStats[cur].Latency, cur)
		}
	}
	if res.Latency <= 0 || res.TotalCPU <= 0 {
		t.Error("zero latency or CPU")
	}
}

// TestReuseNeverChangesResults is the core §4 correctness invariant as a
// property test: for random pipelines, executing with a materialized view
// substituted for a random subgraph yields identical results.
func TestReuseNeverChangesResults(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomPipeline(r)
		orig, err := e.RunCtx(context.Background(), root.Output("o"), "orig", 0, 0)
		if err != nil {
			return false
		}
		// Pick a random non-leaf subgraph to materialize.
		nodes := plan.Nodes(root)
		cand := nodes[r.Intn(len(nodes))]
		sig := signature.Of(cand)
		path := storage.PathFor(sig.Precise, "p")
		if _, err := e.Store.Get(path); err != nil {
			mat := cand.Materialize(path, sig.Precise, sig.Normalized, plan.PhysicalProps{}).Output("tmp")
			if _, err := e.RunCtx(context.Background(), mat, "builder", 0, 0); err != nil {
				return false
			}
		}
		view, err := e.Store.Get(path)
		if err != nil {
			return false
		}
		// Rewrite the original plan to read the view.
		rewritten := plan.Rewrite(root, func(n *plan.Node) *plan.Node {
			if signature.Of(n).Precise == sig.Precise && n.Kind != plan.OpViewScan {
				return plan.ViewScan(view.Path, n.Schema(), sig.Precise, sig.Normalized)
			}
			return n
		})
		re, err := e.RunCtx(context.Background(), rewritten.Output("o"), "reuse", 0, 0)
		if err != nil {
			return false
		}
		return data.RowsEqual(orig.Outputs["o"], re.Outputs["o"])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomPipeline builds a random linear pipeline over the sales table.
func randomPipeline(r *rand.Rand) *plan.Node {
	n := plan.Scan("sales", "sales-v1", salesSchema())
	steps := 1 + r.Intn(3)
	for i := 0; i < steps; i++ {
		switch r.Intn(4) {
		case 0:
			n = n.Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(r.Int63n(3)))))
		case 1:
			n = n.ShuffleHash([]int{r.Intn(2)}, 1+r.Intn(6))
		case 2:
			n = n.Sort([]int{r.Intn(4)}, nil)
		default:
			return n.HashAgg([]int{r.Intn(2)}, []plan.AggSpec{{Fn: plan.AggSum, Col: 2}})
		}
	}
	return n
}

func BenchmarkExecutePipeline(b *testing.B) {
	e := env(b)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}}).
		Output("o")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunCtx(context.Background(), p, "j", 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
