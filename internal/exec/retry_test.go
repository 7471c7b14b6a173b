package exec

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/fault"
	"cloudviews/internal/plan"
)

// transientErr is a retryable test failure.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// flakyHook transiently fails the first `failures` attempts of every
// vertex of one operator kind, then lets it pass. Attempt-keyed, so it is
// deterministic.
type flakyHook struct {
	kind     plan.OpKind
	failures int

	mu    sync.Mutex
	fired int
}

func (f *flakyHook) VertexDone(_, site string, k plan.OpKind, attempt int) error {
	if k == f.kind && attempt < f.failures {
		f.mu.Lock()
		f.fired++
		f.mu.Unlock()
		return transientErr{"flaky vertex " + site}
	}
	return nil
}

func (f *flakyHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

func retryPlan() *plan.Node {
	return plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}}).
		Sort([]int{0}, nil).
		Output("o")
}

// TestVertexRetryRecovers: a vertex that fails transiently twice succeeds
// on its third attempt, the job completes, and the output is byte-identical
// to a clean run. Runs on the parallel path (hooks no longer force serial).
func TestVertexRetryRecovers(t *testing.T) {
	e := env(t)
	clean, err := e.RunCtx(context.Background(), retryPlan(), "clean", 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	hook := &flakyHook{kind: plan.OpHashGbAgg, failures: 2}
	e.Faults = hook
	defer func() { e.Faults = nil }()
	res, err := e.RunCtx(context.Background(), retryPlan(), "flaky", 0, 0)
	if err != nil {
		t.Fatalf("retries should have saved the job: %v", err)
	}
	if hook.fired != 2 || res.Retries != 2 {
		t.Errorf("fired=%d retries=%d, want 2/2", hook.fired, res.Retries)
	}
	if res.RetryWait <= 0 {
		t.Error("retries accrued no simulated backoff")
	}
	cRows, fRows := clean.Outputs["o"], res.Outputs["o"]
	if len(cRows) != len(fRows) {
		t.Fatalf("row count %d vs clean %d", len(fRows), len(cRows))
	}
	for i := range cRows {
		if data.CompareRows(cRows[i], fRows[i], allCols(cRows[i]), nil) != 0 {
			t.Fatalf("row %d differs from clean run: %v vs %v", i, fRows[i], cRows[i])
		}
	}
	// Same CPU as clean (retries re-run work but the simulated cost model
	// charges the final successful attempt); latency gains the backoff.
	if res.TotalCPU != clean.TotalCPU {
		t.Errorf("TotalCPU %v != clean %v", res.TotalCPU, clean.TotalCPU)
	}
	if res.Latency <= clean.Latency {
		t.Errorf("latency %v should exceed clean %v by the backoff", res.Latency, clean.Latency)
	}
}

// TestRetryAttemptsExhausted: a vertex that never stops failing exhausts
// its per-vertex attempt cap and fails the job with a descriptive error.
func TestRetryAttemptsExhausted(t *testing.T) {
	e := env(t)
	e.Faults = &flakyHook{kind: plan.OpSort, failures: 1 << 30}
	defer func() { e.Faults = nil }()
	_, err := e.RunCtx(context.Background(), retryPlan(), "doomed", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("want attempts-exhausted error, got %v", err)
	}
}

// TestRetryJobBudget: the per-job budget caps total retries across
// vertices even when each individual vertex would still have attempts left.
// Six filters that each fail three times want 18 retries, each within the
// per-vertex cap of 4 attempts, but the job's budget is 16.
func TestRetryJobBudget(t *testing.T) {
	e := env(t)
	e.Faults = &flakyHook{kind: plan.OpFilter, failures: maxAttempts - 1}
	defer func() { e.Faults = nil }()
	p := plan.Scan("sales", "sales-v1", salesSchema())
	filters := jobRetryBudget/(maxAttempts-1) + 1
	for i := 0; i < filters; i++ {
		p = p.Filter(expr.B(expr.OpGe, expr.C(2, "qty"), expr.Lit(data.Int(int64(-i)))))
	}
	_, err := e.RunCtx(context.Background(), p.Output("o"), "budgeted", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("want budget-exhausted error, got %v", err)
	}
}

// TestBackoffShape pins the capped exponential: base doubling per attempt,
// clamped at the cap.
func TestBackoffShape(t *testing.T) {
	for i, want := range []float64{1, 2, 4, 8, 16, 30, 30} {
		if got := backoff(i); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestFaultScheduleDeterministicAcrossSchedulers: two executors, each
// with its own injector of the same seed, absorb the same fault schedule
// and produce byte-identical results, stats, and retry counts — the
// property that lets the chaos soak byte-diff against clean baselines.
func TestFaultScheduleDeterministicAcrossSchedulers(t *testing.T) {
	cfg := fault.Config{Seed: 1234, VertexCrash: 0.25, VertexSlow: 0.2, SlowDelay: 7}
	run := func() *Result {
		e := env(t)
		e.Faults = fault.NewInjector(cfg)
		res, err := e.RunCtx(context.Background(), retryPlan(), "chaos", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Retries != b.Retries {
		t.Errorf("retries diverge: %d vs %d", a.Retries, b.Retries)
	}
	if a.RetryWait != b.RetryWait || a.Latency != b.Latency || a.TotalCPU != b.TotalCPU {
		t.Errorf("accounting diverges: {%v %v %v} vs {%v %v %v}",
			a.RetryWait, a.Latency, a.TotalCPU, b.RetryWait, b.Latency, b.TotalCPU)
	}
	aRows, bRows := a.Outputs["o"], b.Outputs["o"]
	if len(aRows) != len(bRows) {
		t.Fatalf("row counts diverge: %d vs %d", len(aRows), len(bRows))
	}
	for i := range aRows {
		if data.CompareRows(aRows[i], bRows[i], allCols(aRows[i]), nil) != 0 {
			t.Fatalf("row %d diverges: %v vs %v", i, aRows[i], bRows[i])
		}
	}
}
