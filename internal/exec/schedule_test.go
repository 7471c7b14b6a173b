package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// serialRun executes the plan through the depth-first reference walk
// (Executor.Serial), giving tests a reference execution to diff the DAG
// scheduler against.
func serialRun(t *testing.T, e *Executor, root *plan.Node, jobID string) *Result {
	t.Helper()
	e.Serial = true
	defer func() { e.Serial = false }()
	res, err := e.RunCtx(context.Background(), root, jobID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelSchedulerMatchesSerial pins the DAG scheduler to the serial
// walk bit-for-bit: identical ordered outputs, identical per-node Stats,
// and identical TotalCPU/Latency floats (not approximately — the reuse
// validator compares them exactly).
func TestParallelSchedulerMatchesSerial(t *testing.T) {
	e := env(t)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		root := randomPipeline(r).Sort([]int{0}, nil).Output("o")

		serRoot := plan.Clone(root)
		serial := serialRun(t, e, serRoot, "serial")
		par, err := e.RunCtx(context.Background(), root, "par", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, fmt.Sprintf("seed %d", seed), root, serRoot, par, serial)
	}
}

// TestParallelSchedulerSharedSpool covers the DAG (not tree) case: a
// spooled subtree with two parents must execute once and account
// identically under both schedulers.
func TestParallelSchedulerSharedSpool(t *testing.T) {
	e := env(t)
	build := func() *plan.Node {
		shared := plan.Scan("sales", "sales-v1", salesSchema()).
			Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
			Spool()
		return shared.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}}).
			HashJoin(shared, []int{0}, []int{0}).
			Sort([]int{0}, nil).
			Output("o")
	}
	rootA, rootB := build(), build()
	serial := serialRun(t, e, rootA, "serial")
	par, err := e.RunCtx(context.Background(), rootB, "par", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "shared-spool", rootB, rootA, par, serial)

	filterCount := 0
	for n := range par.NodeStats {
		if n.Kind == plan.OpFilter {
			filterCount++
		}
	}
	if filterCount != 1 {
		t.Errorf("shared filter executed %d times under DAG scheduler, want 1", filterCount)
	}
}

// diffResults compares two executions of structurally identical plans.
// parRoot/serRoot are the respective roots; plan.Clone preserves node
// order, so plan.Nodes aligns the two NodeStats maps index-by-index.
func diffResults(t *testing.T, label string, parRoot, serRoot *plan.Node, par, serial *Result) {
	t.Helper()
	for name, sRows := range serial.Outputs {
		pRows := par.Outputs[name]
		if len(pRows) != len(sRows) {
			t.Fatalf("%s: output %q rows %d vs %d", label, name, len(pRows), len(sRows))
		}
		for i := range sRows {
			if data.CompareRows(pRows[i], sRows[i], allCols(sRows[i]), nil) != 0 {
				t.Fatalf("%s: output %q row %d: %v vs %v", label, name, i, pRows[i], sRows[i])
			}
		}
	}
	if len(par.Outputs) != len(serial.Outputs) {
		t.Fatalf("%s: output count %d vs %d", label, len(par.Outputs), len(serial.Outputs))
	}
	if par.TotalCPU != serial.TotalCPU {
		t.Errorf("%s: TotalCPU %v vs %v", label, par.TotalCPU, serial.TotalCPU)
	}
	if par.Latency != serial.Latency {
		t.Errorf("%s: Latency %v vs %v", label, par.Latency, serial.Latency)
	}
	pNodes, sNodes := plan.Nodes(parRoot), plan.Nodes(serRoot)
	if len(pNodes) != len(sNodes) {
		t.Fatalf("%s: node count %d vs %d", label, len(pNodes), len(sNodes))
	}
	for i := range pNodes {
		ps, ss := par.NodeStats[pNodes[i]], serial.NodeStats[sNodes[i]]
		if ps == nil || ss == nil {
			t.Fatalf("%s: node %d (%v) missing stats (par=%v serial=%v)", label, i, pNodes[i].Kind, ps, ss)
		}
		if *ps != *ss {
			t.Errorf("%s: node %d (%v) stats %+v vs %+v", label, i, pNodes[i].Kind, *ps, *ss)
		}
	}
}

// TestViewScanConcurrentConsumers enforces the aliasing contract that
// applyViewScan's shallow copy relies on: many consumers reading one
// materialized view concurrently never mutate the stored rows, and each
// gets exactly the rows a serial execution would.
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
		want[i] = serialRun(t, e, consumer(i), fmt.Sprintf("ref%d", i))
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
