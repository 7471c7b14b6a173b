package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/workload"
)

func eventSchema() data.Schema {
	return data.Schema{
		{Name: "uid", Kind: data.KindInt},
		{Name: "action", Kind: data.KindString},
		{Name: "day", Kind: data.KindDate},
		{Name: "dur", Kind: data.KindFloat},
	}
}

// guidFor names the data version delivered for an instance.
func guidFor(instance int64) string { return fmt.Sprintf("events-v%d", instance) }

// deliver installs the data batch for a recurring instance: every row of
// the batch carries the instance's date.
func deliver(t testing.TB, cat *catalog.Catalog, instance int64) {
	t.Helper()
	day := 17000 + instance
	fill := func(tab *data.Table) {
		g := data.NewGenerator(100 + instance)
		rr := 0
		for i := 0; i < 500; i++ {
			tab.AppendHash(data.Row{
				data.Int(g.Rand().Int63n(50)),
				data.String_(fmt.Sprintf("act_%d", g.Rand().Int63n(8))),
				data.Date(day),
				data.Float(float64(g.Rand().Int63n(1000))),
			}, []int{0}, &rr)
		}
	}
	if instance == 0 {
		tab := data.NewTable("events", guidFor(0), eventSchema(), 4)
		fill(tab)
		cat.Register(tab)
		return
	}
	if err := cat.Deliver("events", guidFor(instance), fill); err != nil {
		t.Fatal(err)
	}
}

// sharedSub is the overlapping computation of the recurring template.
func sharedSub(instance int64) *plan.Node {
	return plan.Scan("events", guidFor(instance), eventSchema()).
		Filter(expr.Eq(expr.C(2, "day"), expr.P("day", data.Date(17000+instance)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}, {Fn: plan.AggCount, Col: 1}})
}

// specA and specB are two recurring templates sharing sharedSub.
func specA(job string, instance int64) JobSpec {
	return JobSpec{
		Meta: workload.JobMeta{
			JobID: job, Cluster: "c1", BusinessUnit: "bu1", VC: "vc1",
			User: "u1", TemplateID: "tplA", Instance: instance, Period: 1,
		},
		Root: sharedSub(instance).Sort([]int{1}, []bool{true}).Top(10).Output("topUsers"),
	}
}

func specB(job string, instance int64) JobSpec {
	return JobSpec{
		Meta: workload.JobMeta{
			JobID: job, Cluster: "c1", BusinessUnit: "bu1", VC: "vc1",
			User: "u2", TemplateID: "tplB", Instance: instance, Period: 1,
		},
		Root: sharedSub(instance).
			Filter(expr.B(expr.OpGt, expr.C(2, "count_action"), expr.Lit(data.Int(2)))).
			Output("activeUsers"),
	}
}

// newService builds a validating service with one delivered instance.
func newService(t testing.TB) *Service {
	t.Helper()
	cat := catalog.New()
	deliver(t, cat, 0)
	return NewService(cat, Config{Enabled: true, ValidateResults: true})
}

// seedHistory runs instance 0 (no annotations yet) and the analyzer,
// establishing the feedback loop for later instances.
func seedHistory(t testing.TB, s *Service) *analyzer.Analysis {
	t.Helper()
	for i, spec := range []JobSpec{specA("a0", 0), specB("b0", 0)} {
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatalf("seed job %d: %v", i, err)
		}
	}
	// TopK=1 keeps exactly one annotated view (the highest-utility shared
	// subgraph), which the assertions below rely on.
	an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 1})
	if len(an.Selected) == 0 {
		t.Fatal("analyzer selected nothing from seed history")
	}
	return an
}

func TestEndToEndBuildAndReuse(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)

	// Instance 1: new data, same templates.
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	ra, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Decision.ViewsBuilt) != 1 {
		t.Fatalf("first job of the instance should build, built=%d used=%d",
			len(ra.Decision.ViewsBuilt), len(ra.Decision.ViewsUsed))
	}
	rb, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Decision.ViewsUsed) != 1 {
		t.Fatalf("second job should reuse, built=%d used=%d",
			len(rb.Decision.ViewsBuilt), len(rb.Decision.ViewsUsed))
	}
	// ValidateResults already compared outputs against baselines.
	// Reuse must reduce CPU vs the validated baseline.
	if rb.Result.TotalCPU >= rb.BaselineResult.TotalCPU {
		t.Errorf("reuse CPU %.1f >= baseline %.1f", rb.Result.TotalCPU, rb.BaselineResult.TotalCPU)
	}
	if rb.Result.Latency >= rb.BaselineResult.Latency {
		t.Errorf("reuse latency %.1f >= baseline %.1f", rb.Result.Latency, rb.BaselineResult.Latency)
	}
	// Exactly one view exists.
	if s.Store.Len() != 1 {
		t.Errorf("store has %d views, want 1", s.Store.Len())
	}
}

func TestDisabledServiceNeverTouchesPlans(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: false})
	if _, err := s.Run(context.Background(), specA("a0", 0)); err != nil {
		t.Fatal(err)
	}
	an := s.RunAnalyzer(analyzer.Config{MinFrequency: 1})
	_ = an
	r, err := s.Run(context.Background(), specA("a1", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsBuilt)+len(r.Decision.ViewsUsed) != 0 {
		t.Error("disabled service made reuse decisions")
	}
	if s.Store.Len() != 0 {
		t.Error("disabled service materialized views")
	}
}

func TestNewInstanceInvalidatesOldViews(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	// Instance 2 delivers fresh data: the instance-1 view must not match.
	deliver(t, s.Catalog, 2)
	s.BeginInstance(2)
	r, err := s.Run(context.Background(), specB("b2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsUsed) != 0 {
		t.Error("stale view reused across instances")
	}
	if len(r.Decision.ViewsBuilt) != 1 {
		t.Error("new instance should build a fresh view")
	}
}

func TestExpiryPurgesViews(t *testing.T) {
	s := newService(t)
	an := seedHistory(t, s)
	delta := an.Selected[0].ExpiryDelta
	if delta != 2 { // period 1 + 1 slack
		t.Fatalf("expiry delta = %d, want 2", delta)
	}
	deliver(t, s.Catalog, 1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Store.Len() != 1 {
		t.Fatal("view not built")
	}
	// The view expires at instance 1+2=3: still alive at 2, gone at 3.
	s.BeginInstance(2)
	if s.Store.Len() != 1 {
		t.Error("view purged too early")
	}
	s.BeginInstance(3)
	if s.Store.Len() != 0 {
		t.Error("expired view not purged from storage")
	}
	if len(s.Meta.Views()) != 0 {
		t.Error("expired view not purged from metadata")
	}
}

// crashKindHook is an exec.FaultHook that permanently crashes every vertex
// of one operator kind (no Transient marker, so retries don't save it).
type crashKindHook struct{ kind plan.OpKind }

func (c crashKindHook) VertexDone(_, _ string, k plan.OpKind, _ int) error {
	if k == c.kind {
		return errors.New("injected failure")
	}
	return nil
}

func (c crashKindHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

func TestBuilderFailureReleasesLockAndKeepsSealedViews(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)

	// Make the builder fail after the Materialize seals (at the Sort
	// above it). The view survives as a checkpoint.
	s.Exec.Faults = crashKindHook{plan.OpSort}
	if _, err := s.Run(context.Background(), specA("a1-fail", 1)); err == nil {
		t.Fatal("expected injected failure")
	}
	s.Exec.Faults = nil
	if s.Store.Len() != 1 {
		t.Fatal("early-materialized view should survive builder failure")
	}
	// The next job reuses the checkpointed view.
	r, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsUsed) != 1 {
		t.Error("surviving view not reused")
	}
}

func TestBuilderFailureBeforeSealAllowsRetry(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)

	// Fail before the Materialize runs: at the Exchange under it.
	s.Exec.Faults = crashKindHook{plan.OpExchange}
	if _, err := s.Run(context.Background(), specA("a1-fail", 1)); err == nil {
		t.Fatal("expected injected failure")
	}
	s.Exec.Faults = nil
	if s.Store.Len() != 0 {
		t.Fatal("no view should exist after pre-seal failure")
	}
	// The abort released the lock, so the next job can build immediately.
	r, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsBuilt) != 1 {
		t.Error("lock not released after failed builder")
	}
}

func TestConcurrentSubmissionsSingleBuilder(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	const n = 8
	var wg sync.WaitGroup
	results := make([]*JobResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specA(fmt.Sprintf("conc-%d", i), 1)
			results[i], errs[i] = s.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	builders := 0
	var reference []data.Row
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		builders += len(results[i].Decision.ViewsBuilt)
		out := results[i].Result.Outputs["topUsers"]
		if reference == nil {
			reference = out
		} else if !data.RowsEqual(reference, out) {
			t.Errorf("job %d output differs under concurrency", i)
		}
	}
	if builders != 1 {
		t.Errorf("%d builders, want exactly 1 (build-build sync)", builders)
	}
	if s.Store.Len() != 1 {
		t.Errorf("store has %d views, want 1", s.Store.Len())
	}
}

func TestViewScanStatsImproveEstimates(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	rb, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Decision.ViewsUsed) != 1 {
		t.Fatal("no reuse")
	}
	// The view scan carries actual statistics.
	found := false
	plan.Walk(rb.Plan, func(n *plan.Node) {
		if n.Kind == plan.OpViewScan {
			found = true
			if n.ViewRows <= 0 {
				t.Error("view scan missing injected actual rows")
			}
		}
	})
	if !found {
		t.Fatal("rewritten plan has no view scan")
	}
}

func TestSignatureStabilityAcrossServiceRestart(t *testing.T) {
	// The analyzer's annotations survive a "restart" (new service over the
	// same catalog): normalized signatures are stable identifiers.
	s1 := newService(t)
	an := seedHistory(t, s1)

	cat2 := s1.Catalog
	s2 := NewService(cat2, Config{Enabled: true})
	s2.Meta.LoadAnalysis(an.Annotations)
	r, err := s2.Run(context.Background(), specA("restarted", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsBuilt) != 1 {
		t.Error("annotations did not match after restart")
	}
	sig := signature.Of(sharedSub(0))
	if r.Decision.ViewsBuilt[0].PreciseSig != sig.Precise {
		t.Error("rebuilt view has unexpected signature")
	}
}
