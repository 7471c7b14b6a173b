package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// TestExecutionDeterminismProperty asserts the executor is fully
// deterministic: the same plan over the same data yields byte-identical
// ordered outputs every run — including through Sort/Top tie-breaks and
// the (map-backed) hash aggregate. Reuse validation depends on this.
func TestExecutionDeterminismProperty(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomPipeline(r).Sort([]int{0}, nil).Top(7).Output("o")
		r1, err := e.RunCtx(context.Background(), root, "a", 0, 0)
		if err != nil {
			return false
		}
		r2, err := e.RunCtx(context.Background(), plan.Clone(root), "b", 0, 0)
		if err != nil {
			return false
		}
		a, b := r1.Outputs["o"], r2.Outputs["o"]
		if len(a) != len(b) {
			return false
		}
		// Ordered, exact comparison — multiset equality is not enough here.
		for i := range a {
			if data.CompareRows(a[i], b[i], allCols(a[i]), nil) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTopThroughViewMatchesRecompute pins the subtle tie-break case: a
// Top over a Sort selects identical rows whether the input subtree is
// recomputed or read from a materialized view with a different physical
// layout.
func TestTopThroughViewMatchesRecompute(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		HashAgg([]int{1}, []plan.AggSpec{{Fn: plan.AggCount, Col: 0}}) // many count ties
	sig := signature.Of(base)

	top := func(in *plan.Node) *plan.Node {
		// Sort on the tie-heavy count column, keep 3.
		return in.Sort([]int{1}, []bool{true}).Top(3).Output("o")
	}
	direct, err := e.RunCtx(context.Background(), top(base), "direct", 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize with a hostile physical design: single partition sorted
	// by the opposite column.
	props := plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartSingleton, Count: 1},
		Sort: plan.SortOrder{Cols: []int{0}, Desc: []bool{true}},
	}
	path := storage.PathFor(sig.Precise, "builder")
	mat := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("x")
	if _, err := e.RunCtx(context.Background(), mat, "builder", 0, 0); err != nil {
		t.Fatal(err)
	}
	vs := plan.ViewScan(path, base.Schema(), sig.Precise, sig.Normalized)
	viaView, err := e.RunCtx(context.Background(), top(vs), "viaview", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := direct.Outputs["o"], viaView.Outputs["o"]
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("top sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if data.CompareRows(a[i], b[i], allCols(a[i]), nil) != 0 {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func allCols(r data.Row) []int {
	out := make([]int, len(r))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRangePartitionExchange(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		RangePartition([]int{3}, 4). // range on price
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 200 {
		t.Fatalf("range exchange lost rows: %d", len(res.Outputs["o"]))
	}
	ex := p.Children[0]
	if res.NodeStats[ex].DOP != 4 {
		t.Errorf("DOP = %d", res.NodeStats[ex].DOP)
	}
	// A range exchange costs more than a hash exchange (it sorts).
	h := plan.Scan("sales", "sales-v1", salesSchema()).ShuffleHash([]int{3}, 4).Output("o")
	rh, err := e.RunCtx(context.Background(), h, "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeStats[ex].ExclusiveCost <= rh.NodeStats[h.Children[0]].ExclusiveCost {
		t.Error("range exchange should cost more than hash exchange")
	}
	// Derived properties: partitioned AND sorted.
	props := plan.DeriveProps(ex)
	if props.Part.Kind != plan.PartRange || len(props.Sort.Cols) != 1 || props.Sort.Cols[0] != 3 {
		t.Errorf("derived props = %+v", props)
	}
	// Verify global ordering across partitions: re-running and walking
	// output in partition order yields ascending price.
	outRows := res.Outputs["o"]
	for i := 1; i < len(outRows); i++ {
		if outRows[i-1][3].AsFloat() > outRows[i][3].AsFloat() {
			t.Fatal("range partitions not globally ordered")
		}
	}
}

func TestRangeDesignedView(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}})
	sig := signature.Of(base)
	props := plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartRange, Cols: []int{0}, Count: 3},
	}
	path := storage.PathFor(sig.Precise, "b")
	mat := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("x")
	if _, err := e.RunCtx(context.Background(), mat, "b", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, parts, err := e.Store.ConsumeCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Encoded) != 3 || len(parts) != 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	// Ranges are disjoint and ascending across partitions.
	var last data.Value
	started := false
	for _, part := range parts {
		for _, r := range part {
			if started && data.Compare(last, r[0]) > 0 {
				t.Fatal("range view not globally ordered")
			}
			last = r[0]
			started = true
		}
	}
}

// TestSkewStressParallelMatchesSerial hammers the parallel data plane with
// a pathologically skewed input: one hot join/group key concentrates ~90%
// of 6400 rows in a single partition of 64, so one worker drags while the
// rest finish instantly — the scheduling pattern most likely to expose an
// order-dependent merge. Twenty executions of a
// filter→join→shuffle→agg→materialize→sort pipeline must each be
// byte-identical to the first: ordered outputs, exact TotalCPU/Latency
// floats, per-node Stats, and MaterializedPaths.
func TestSkewStressParallelMatchesSerial(t *testing.T) {
	const parts = 64
	sch := data.Schema{
		{Name: "k", Kind: data.KindInt},
		{Name: "g", Kind: data.KindInt},
		{Name: "v", Kind: data.KindFloat},
	}
	dimSch := data.Schema{{Name: "id", Kind: data.KindInt}, {Name: "w", Kind: data.KindInt}}
	cat := catalog.New()
	fact := data.NewTable("skewfact", "sf-v1", sch, parts)
	rr := 0
	for i := 0; i < 6400; i++ {
		k := int64(7) // hot key: ~90% of rows land in one partition
		if i%10 == 0 {
			k = int64(i)
		}
		fact.AppendHash(data.Row{
			data.Int(k),
			data.Int(int64(i % 5)),
			data.Float(float64(i%97) + 0.5),
		}, []int{0}, &rr)
	}
	hot, total := 0, 0
	for _, p := range fact.Partitions {
		total += len(p)
		if len(p) > hot {
			hot = len(p)
		}
	}
	if hot < total/2 {
		t.Fatalf("fixture not skewed: hottest partition %d of %d rows", hot, total)
	}
	dim := data.NewTable("skewdim", "sd-v1", dimSch, 8)
	for i := 0; i < 100; i++ {
		dim.AppendHash(data.Row{data.Int(int64(i)), data.Int(int64(i % 3))}, []int{0}, &rr)
	}
	cat.Register(fact)
	cat.Register(dim)

	base := plan.Scan("skewfact", "sf-v1", sch).
		Filter(expr.B(expr.OpGe, expr.C(2, "v"), expr.Lit(data.Float(0)))).
		HashJoin(plan.Scan("skewdim", "sd-v1", dimSch), []int{0}, []int{0}).
		ShuffleHash([]int{1}, 16).
		HashAgg([]int{1}, []plan.AggSpec{
			{Fn: plan.AggSum, Col: 2},
			{Fn: plan.AggCount, Col: 0},
		})
	sig := signature.Of(base)
	path := storage.PathFor(sig.Precise, "skew")
	build := func() *plan.Node {
		return plan.Clone(base.Materialize(path, sig.Precise, sig.Normalized, plan.PhysicalProps{
			Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 8},
		}).Sort([]int{0}, nil).Output("o"))
	}

	// Fresh store per run so every execution materializes (and therefore
	// reports) the same path, rather than deduplicating against the
	// previous run's view.
	run := func() (*plan.Node, *Result) {
		root := build()
		res, err := (&Executor{Catalog: cat, Store: storage.NewStore()}).RunCtx(context.Background(), root, "skew", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return root, res
	}
	firstRoot, first := run()
	if len(first.MaterializedPaths) != 1 || first.MaterializedPaths[0] != path {
		t.Fatalf("first run MaterializedPaths = %v", first.MaterializedPaths)
	}
	for i := 1; i < 20; i++ {
		root, res := run()
		diffResults(t, fmt.Sprintf("skew run %d", i), root, firstRoot, res, first)
		if len(res.MaterializedPaths) != 1 || res.MaterializedPaths[0] != path {
			t.Fatalf("run %d: MaterializedPaths %v, want [%s]", i, res.MaterializedPaths, path)
		}
	}
}

func TestSkewedPartitionsStraggle(t *testing.T) {
	// Two tables with identical rows: one balanced across 4 partitions,
	// one with everything in a single hot partition. The same downstream
	// operator must show higher simulated latency on the skewed layout.
	cat := catalog.New()
	sch := data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindFloat}}
	balanced := data.NewTable("balanced", "g", sch, 4)
	skewed := data.NewTable("skewed", "g", sch, 4)
	rr := 0
	for i := 0; i < 400; i++ {
		row := data.Row{data.Int(int64(i)), data.Float(float64(i))}
		balanced.AppendHash(row, nil, &rr) // round robin: balanced
		skewed.Partitions[0] = append(skewed.Partitions[0], row)
	}
	cat.Register(balanced)
	cat.Register(skewed)
	e := &Executor{Catalog: cat, Store: storage.NewStore()}

	run := func(table string) float64 {
		p := plan.Scan(table, "g", sch).
			Filter(expr.B(expr.OpGe, expr.C(0, "k"), expr.Lit(data.Int(0)))).
			Output("o")
		res, err := e.RunCtx(context.Background(), p, table, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency
	}
	if lb, ls := run("balanced"), run("skewed"); ls <= lb {
		t.Errorf("skewed latency %.1f should exceed balanced %.1f", ls, lb)
	}
}

// TestParallelSchedulerSharedSpool covers the DAG (not tree) case: a
// pointer-shared subtree with two parents must execute once per walk, and
// two fresh builds of the plan must account identically.
func TestParallelSchedulerSharedSpool(t *testing.T) {
	e := env(t)
	build := func() *plan.Node {
		shared := plan.Scan("sales", "sales-v1", salesSchema()).
			Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1))))
		return shared.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}}).
			HashJoin(shared, []int{0}, []int{0}).
			Sort([]int{0}, nil).
			Output("o")
	}
	rootA, rootB := build(), build()
	first, err := e.RunCtx(context.Background(), rootA, "first", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.RunCtx(context.Background(), rootB, "second", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "shared-spool", rootB, rootA, second, first)

	for _, res := range []*Result{first, second} {
		filterCount := 0
		for n := range res.NodeStats {
			if n.Kind == plan.OpFilter {
				filterCount++
			}
		}
		if filterCount != 1 {
			t.Errorf("shared filter executed %d times, want 1", filterCount)
		}
	}
}

// diffResults compares two executions of structurally identical plans
// bit-for-bit: ordered outputs, per-node Stats, and the TotalCPU/Latency
// floats (the reuse validator compares them exactly). gotRoot and
// wantRoot are the respective roots; plan.Clone preserves node order, so
// plan.Nodes aligns the two NodeStats maps index-by-index.
func diffResults(t *testing.T, label string, gotRoot, wantRoot *plan.Node, got, want *Result) {
	t.Helper()
	for name, wantRows := range want.Outputs {
		gotRows := got.Outputs[name]
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%s: output %q rows %d vs %d", label, name, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if data.CompareRows(gotRows[i], wantRows[i], allCols(wantRows[i]), nil) != 0 {
				t.Fatalf("%s: output %q row %d: %v vs %v", label, name, i, gotRows[i], wantRows[i])
			}
		}
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: output count %d vs %d", label, len(got.Outputs), len(want.Outputs))
	}
	if got.TotalCPU != want.TotalCPU {
		t.Errorf("%s: TotalCPU %v vs %v", label, got.TotalCPU, want.TotalCPU)
	}
	if got.Latency != want.Latency {
		t.Errorf("%s: Latency %v vs %v", label, got.Latency, want.Latency)
	}
	gotNodes, wantNodes := plan.Nodes(gotRoot), plan.Nodes(wantRoot)
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("%s: node count %d vs %d", label, len(gotNodes), len(wantNodes))
	}
	for i := range gotNodes {
		gs, ws := got.NodeStats[gotNodes[i]], want.NodeStats[wantNodes[i]]
		if gs == nil || ws == nil {
			t.Fatalf("%s: node %d (%v) missing stats (got=%v want=%v)", label, i, gotNodes[i].Kind, gs, ws)
		}
		if *gs != *ws {
			t.Errorf("%s: node %d (%v) stats %+v vs %+v", label, i, gotNodes[i].Kind, *gs, *ws)
		}
	}
}

// obsFunc adapts a function to ObsHook.
type obsFunc func(VertexEvent)

func (f obsFunc) VertexDone(_ string, ev VertexEvent) { f(ev) }

// TestHooksArriveInPostOrder pins the contract that lets callers keep
// their hook state unguarded: OnViewMaterialized and ObsHook.VertexDone
// are called from the RunCtx goroutine, one at a time, in the walk's
// post-order (plan.Nodes order). The plan has two Materialize operators in
// independent join inputs; the hooks append to plain slices, so the race
// detector catches any overlap.
func TestHooksArriveInPostOrder(t *testing.T) {
	e := env(t)
	mat := func(n *plan.Node) *plan.Node {
		sig := signature.Of(n)
		return n.Materialize(storage.PathFor(sig.Precise, "hooks"), sig.Precise, sig.Normalized,
			plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 2}})
	}
	left := mat(plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))))
	right := mat(plan.Scan("items", "items-v1", itemSchema()))
	root := left.HashJoin(right, []int{0}, []int{0}).Sort([]int{0}, nil).Output("o")

	var views, sites []string
	e.OnViewMaterialized = func(v *storage.View) { views = append(views, v.Path) }
	e.Obs = obsFunc(func(ev VertexEvent) { sites = append(sites, ev.Site) })
	if _, err := e.RunCtx(context.Background(), root, "hooks", 0, 0); err != nil {
		t.Fatal(err)
	}

	var wantViews, wantSites []string
	for i, n := range plan.Nodes(root) {
		wantSites = append(wantSites, fmt.Sprintf("%d/%s", i, n.Kind))
		if n.Kind == plan.OpMaterialize {
			wantViews = append(wantViews, n.MatPath)
		}
	}
	if fmt.Sprint(sites) != fmt.Sprint(wantSites) {
		t.Errorf("VertexDone order %v, want %v", sites, wantSites)
	}
	if len(wantViews) != 2 || fmt.Sprint(views) != fmt.Sprint(wantViews) {
		t.Errorf("OnViewMaterialized order %v, want %v", views, wantViews)
	}
}

// TestViewScanConcurrentConsumers enforces the aliasing contract that
// applyViewScan's shallow copy relies on: many consumers reading one
// materialized view concurrently never mutate the stored rows, and each
// gets exactly the rows a lone execution of its plan does.
func TestViewScanConcurrentConsumers(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(0))))
	sig := signature.Of(base)
	path := storage.PathFor(sig.Precise, "builder")
	mat := base.Materialize(path, sig.Precise, sig.Normalized, plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 4},
	}).Output("x")
	if _, err := e.RunCtx(context.Background(), mat, "builder", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, decoded, err := e.Store.ConsumeCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	// Deep snapshot of the decoded view, values included — the hot cache
	// serves this exact decode to every consumer below, so any in-place
	// mutation by an operator would diverge from it. Also snapshot the
	// at-rest payload bytes.
	snapshot := make([][]data.Row, len(decoded))
	for i, part := range decoded {
		snapshot[i] = make([]data.Row, len(part))
		for j, row := range part {
			snapshot[i][j] = append(data.Row{}, row...)
		}
	}
	encSnapshot := make([][]byte, len(v.Encoded))
	for i, b := range v.Encoded {
		encSnapshot[i] = append([]byte(nil), b...)
	}

	// Consumers that reorder, drop, extend, and aggregate the view's rows —
	// every operator class that could plausibly mutate input in place.
	consumer := func(i int) *plan.Node {
		vs := plan.ViewScan(path, base.Schema(), sig.Precise, sig.Normalized)
		switch i % 4 {
		case 0:
			return vs.Sort([]int{3}, []bool{true}).Top(5).Output("o")
		case 1:
			return vs.Filter(expr.B(expr.OpGe, expr.C(0, "item"), expr.Lit(data.Int(7)))).Output("o")
		case 2:
			return vs.ShuffleHash([]int{1}, 3).
				HashAgg([]int{1}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}}).
				Sort([]int{0}, nil).Output("o")
		default:
			return vs.HashJoin(plan.Scan("items", "items-v1", itemSchema()), []int{0}, []int{0}).
				Sort([]int{0}, nil).Output("o")
		}
	}
	const consumers = 16
	want := make([]*Result, consumers)
	for i := range want {
		res, err := e.RunCtx(context.Background(), consumer(i), fmt.Sprintf("ref%d", i), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	got := make([]*Result, consumers)
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.RunCtx(context.Background(), consumer(i), fmt.Sprintf("c%d", i), 0, 0)
		}(i)
	}
	wg.Wait()

	for i := 0; i < consumers; i++ {
		if errs[i] != nil {
			t.Fatalf("consumer %d: %v", i, errs[i])
		}
		a, b := got[i].Outputs["o"], want[i].Outputs["o"]
		if len(a) != len(b) {
			t.Fatalf("consumer %d: %d rows, want %d", i, len(a), len(b))
		}
		for j := range a {
			if data.CompareRows(a[j], b[j], allCols(a[j]), nil) != 0 {
				t.Fatalf("consumer %d row %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}

	// The stored view must be byte-identical to the pre-consumer snapshot:
	// both the at-rest encoded payload and the shared decode it serves.
	v2, decoded2, err := e.Store.ConsumeCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Encoded) != len(encSnapshot) {
		t.Fatalf("view partition count changed: %d vs %d", len(v2.Encoded), len(encSnapshot))
	}
	for i, b := range v2.Encoded {
		if !bytes.Equal(b, encSnapshot[i]) {
			t.Fatalf("encoded partition %d changed", i)
		}
	}
	if len(decoded2) != len(snapshot) {
		t.Fatalf("decoded partition count changed: %d vs %d", len(decoded2), len(snapshot))
	}
	for i, part := range decoded2 {
		if len(part) != len(snapshot[i]) {
			t.Fatalf("view partition %d length changed: %d vs %d", i, len(part), len(snapshot[i]))
		}
		for j, row := range part {
			if data.CompareRows(row, snapshot[i][j], allCols(row), nil) != 0 {
				t.Fatalf("stored view mutated at partition %d row %d: %v vs %v", i, j, row, snapshot[i][j])
			}
		}
	}
}
