package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/fault"
)

// traceWorkload drives one fixed-seed faulty workload through a fresh
// service and returns the service and the submitted job IDs in order.
func traceWorkload(t *testing.T) (*Service, []string) {
	t.Helper()
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	s.InstallFaults(fault.NewInjector(fault.Config{
		Seed: 7, VertexCrash: 0.15, VertexSlow: 0.3, SlowDelay: 5,
	}))

	var ids []string
	submit := func(spec JobSpec) {
		t.Helper()
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatalf("job %s: %v", spec.Meta.JobID, err)
		}
		ids = append(ids, spec.Meta.JobID)
	}
	submit(specA("a0", 0))
	submit(specB("b0", 0))
	if an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 1}); len(an.Selected) == 0 {
		t.Fatal("analyzer selected nothing")
	}
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	submit(specA("a1", 1)) // builds the annotated view
	submit(specB("b1", 1)) // reuses it
	return s, ids
}

// traceRun runs traceWorkload and returns every job's exported trace
// bytes. Everything that feeds a trace is simulated (logical ticks, seeded
// faults, simulated CPU), so two runs must export identical bytes.
func traceRun(t *testing.T) map[string][]byte {
	t.Helper()
	s, ids := traceWorkload(t)
	out := map[string][]byte{}
	for _, id := range ids {
		tr, ok := s.Trace(id)
		if !ok {
			t.Fatalf("no trace retained for %s", id)
		}
		out[id] = tr.JSON()
	}
	return out
}

// TestTraceDeterminismSerialVsDAG pins the trace invariant: for a fixed
// fault seed, two fresh services export byte-identical traces for every
// job.
func TestTraceDeterminismSerialVsDAG(t *testing.T) {
	first := traceRun(t)
	second := traceRun(t)
	if len(first) != len(second) {
		t.Fatalf("job count differs: %d vs %d", len(first), len(second))
	}
	for id, fj := range first {
		if !bytes.Equal(fj, second[id]) {
			t.Errorf("trace for %s differs across runs\nfirst:  %s\nsecond: %s", id, fj, second[id])
		}
	}
	// The reusing job's trace must carry the full span taxonomy.
	b1 := first["b1"]
	for _, want := range []string{
		`"outcome":"ok"`, `"name":"admission"`, `"name":"optimize"`,
		`"name":"match"`, `"name":"inject"`, `"name":"execute"`,
		`"name":"storage.decode"`, `"cache":`,
	} {
		if !bytes.Contains(b1, []byte(want)) {
			t.Errorf("trace for b1 missing %s:\n%s", want, b1)
		}
	}
	if !bytes.Contains(first["a1"], []byte(`"name":"publish"`)) {
		t.Errorf("builder job a1 has no publish span:\n%s", first["a1"])
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestSnapshotMetricsGolden pins every metric name, value and histogram
// bucket that traceWorkload's fixed-seed run publishes in
// Snapshot().Metrics. Rewrite with -update.
func TestSnapshotMetricsGolden(t *testing.T) {
	s, _ := traceWorkload(t)
	got, err := json.MarshalIndent(s.Snapshot().Metrics, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const golden = "testdata/snapshot_metrics.json"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Snapshot().Metrics drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestSnapshotConcurrentWithBatch reads Snapshot continuously while a
// batch executes (the -race stanza in scripts/check.sh runs this under
// the race detector) and then checks the settled ledger adds up.
func TestSnapshotConcurrentWithBatch(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	const batch = 24
	specs := make([]JobSpec, batch)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = specA(fmt.Sprintf("a1-%d", i), 1)
		} else {
			specs[i] = specB(fmt.Sprintf("b1-%d", i), 1)
		}
	}

	var bad atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st := s.Snapshot()
			if st.SchemaVersion != StatsSchemaVersion {
				bad.Add(1)
			}
			if st.Recovery.QuarantinedViews > st.Recovery.DegradedReplans {
				bad.Add(1) // a quarantine always pairs with a replan
			}
		}
	}()
	if _, err := s.RunBatch(context.Background(), specs, BatchOptions{Concurrency: 8}); err != nil {
		t.Fatal(err)
	}
	<-done
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inconsistent snapshots observed mid-batch", n)
	}

	st := s.Snapshot()
	m := st.Metrics.Counters
	const total = 2 + batch // seedHistory + the batch
	if m["jobs.submitted"] != total || m["jobs.completed"] != total {
		t.Fatalf("job ledger: submitted=%d completed=%d want %d/%d",
			m["jobs.submitted"], m["jobs.completed"], total, total)
	}
	if m["jobs.failed"] != 0 {
		t.Fatalf("unexpected failures: %d", m["jobs.failed"])
	}
	if m["exec.vertices"] == 0 || m["meta.lookups"] == 0 || m["storage.views_written"] == 0 {
		t.Fatalf("core counters not flowing: %v", m)
	}
	if h := st.Metrics.Histograms["job.latency_ticks"]; h.Count != total {
		t.Fatalf("latency histogram count=%d want %d", h.Count, total)
	}
	if m["analyzer.runs"] != 1 {
		t.Fatalf("analyzer.runs=%d want 1", m["analyzer.runs"])
	}
	if len(st.Breakers) != 2 || st.Breakers[0].Dep != "metadata" || st.Breakers[1].Dep != "viewstore" {
		t.Fatalf("breaker stats malformed: %+v", st.Breakers)
	}
}

// TestRecoveryStatsSnapshotConsistent pins the grouped-counter fix:
// Recovery must never observe a quarantine without its paired replan,
// which plain atomic loads could tear between the two increments.
func TestRecoveryStatsSnapshotConsistent(t *testing.T) {
	s := newService(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.recovery.bump(func() {
					s.recovery.quarantined.Add(1)
					s.recovery.replans.Add(1)
				})
			}
		}()
	}
	for i := 0; i < 500; i++ {
		rs := s.Snapshot().Recovery
		if rs.QuarantinedViews != rs.DegradedReplans {
			t.Fatalf("torn snapshot: quarantined=%d replans=%d",
				rs.QuarantinedViews, rs.DegradedReplans)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTracingDisabled: an observer with a negative trace capacity keeps
// metrics flowing with tracing off; SetObserver(nil) strips everything.
func TestTracingDisabled(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	s.SetObserver(NewObserver(-1))
	if _, err := s.Run(context.Background(), specA("a0", 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Trace("a0"); ok {
		t.Fatal("trace retained with tracing disabled")
	}
	if n := s.Snapshot().Metrics.Counters["jobs.completed"]; n != 1 {
		t.Fatalf("metrics should flow without tracing, jobs.completed=%d", n)
	}

	s.SetObserver(nil)
	if _, err := s.Run(context.Background(), specB("b0", 0)); err != nil {
		t.Fatal(err)
	}
	if len(s.Snapshot().Metrics.Counters) != 0 {
		t.Fatal("metrics present after SetObserver(nil)")
	}
}

// TestTraceCapacityEviction: the ring keeps only the newest traces.
func TestTraceCapacityEviction(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	s.SetObserver(NewObserver(1))
	for _, id := range []string{"a0", "a1"} {
		if _, err := s.Run(context.Background(), specA(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Trace("a0"); ok {
		t.Fatal("oldest trace should have been evicted at capacity 1")
	}
	if _, ok := s.Trace("a1"); !ok {
		t.Fatal("newest trace missing")
	}
}

// TestLifecycleOutcomeMetrics: shed and deadline outcomes reach both the
// job counters and the trace root outcome.
func TestLifecycleOutcomeMetrics(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	if _, err := s.Run(context.Background(), specA("ok", 0)); err != nil {
		t.Fatal(err)
	}
	// Deadline 1 tick: the job's simulated latency cannot fit.
	spec := specB("late", 0)
	spec.Deadline = 1
	if _, err := s.Run(context.Background(), spec); err == nil {
		t.Fatal("expected deadline failure")
	}
	m := s.Snapshot().Metrics.Counters
	if m["jobs.failed"] != 1 || m["jobs.deadline_exceeded"] != 1 {
		t.Fatalf("deadline not counted: %v", m)
	}
	tr, ok := s.Trace("late")
	if !ok {
		t.Fatal("failed job should still be traced")
	}
	if !bytes.Contains(tr.JSON(), []byte(`"outcome":"deadline"`)) {
		t.Fatalf("trace outcome wrong: %s", tr.JSON())
	}
}

// TestSnapshotLifecycleCountersAgree: shed, cancelled, deadline-exceeded
// and reuse-skipped are each counted once (recoveryCounters) and Snapshot
// publishes the same values under their metric names, so the two halves
// of one snapshot cannot disagree. With the observer removed the recovery
// half keeps counting.
func TestSnapshotLifecycleCountersAgree(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})

	s.Meta.Faults = blackout{}
	if _, err := s.Run(context.Background(), specA("skipped", 0)); err != nil {
		t.Fatalf("blackout must degrade, not fail: %v", err)
	}
	s.Meta.Faults = nil
	late := specB("late", 0)
	late.Deadline = 1
	if _, err := s.Run(context.Background(), late); err == nil {
		t.Fatal("expected deadline failure")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, specA("cancelled", 0)); err == nil {
		t.Fatal("expected cancellation failure")
	}
	if err := s.Drain(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), specA("shed", 0)); err == nil {
		t.Fatal("expected a draining service to shed")
	}

	st := s.Snapshot()
	want := RecoveryStats{ReuseSkipped: 1, DeadlineExceeded: 1, Cancelled: 1, Shed: 1}
	if st.Recovery != want {
		t.Fatalf("Recovery = %+v, want %+v", st.Recovery, want)
	}
	for name, v := range map[string]int64{
		"reuse.skipped":          st.Recovery.ReuseSkipped,
		"jobs.deadline_exceeded": st.Recovery.DeadlineExceeded,
		"jobs.cancelled":         st.Recovery.Cancelled,
		"jobs.shed":              st.Recovery.Shed,
	} {
		if got, ok := st.Metrics.Counters[name]; !ok || got != v {
			t.Errorf("Metrics.Counters[%q] = %d (present %v), Recovery says %d", name, got, ok, v)
		}
	}
	if st.Metrics.Counters["jobs.failed"] != 3 {
		t.Errorf("jobs.failed = %d, want 3", st.Metrics.Counters["jobs.failed"])
	}

	s.SetObserver(nil)
	if _, err := s.Run(context.Background(), specA("shed-2", 0)); err == nil {
		t.Fatal("expected a draining service to shed")
	}
	if st := s.Snapshot(); st.Recovery.Shed != 2 || len(st.Metrics.Counters) != 0 {
		t.Errorf("observer removed: Shed = %d (want 2), %d metric counters (want 0)",
			st.Recovery.Shed, len(st.Metrics.Counters))
	}
}

// TestSnapshotNamesOwnerCounts: a name whose event a component counts is
// published from that component's counter, so it equals the owner's
// figure in the same snapshot, under storage-read, corruption and
// metadata-lookup faults, with the cache on and off. Replacing the
// observer mid-run restarts only the Observer's own counters; the
// owner-published names keep counting from service start.
func TestSnapshotNamesOwnerCounts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{{"cache", 0}, {"nocache", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New()
			deliver(t, cat, 0)
			s := NewService(cat, Config{Enabled: true, CacheBytes: tc.cacheBytes})
			seedHistory(t, s)
			in := fault.NewInjector(fault.Config{
				Seed: 3, StorageRead: 0.3, CorruptWrite: 0.3, MetaBlackout: 0.3,
			})
			s.InstallFaults(in)
			submitted := 0
			run := func(from, to int64) {
				for inst := from; inst < to; inst++ {
					deliver(t, s.Catalog, inst)
					s.BeginInstance(inst)
					for j := 0; j < 4; j++ {
						// Faults may fail a job; the counts must agree anyway.
						_, _ = s.Run(context.Background(), specA(fmt.Sprintf("a%d-%d", inst, j), inst))
						_, _ = s.Run(context.Background(), specB(fmt.Sprintf("b%d-%d", inst, j), inst))
						submitted += 2
					}
				}
			}
			check := func(stage string) map[string]int64 {
				t.Helper()
				st := s.Snapshot()
				m := st.Metrics.Counters
				var opens, closes int64
				for _, b := range st.Breakers {
					opens += b.Opens
					closes += b.ProbeSuccesses
				}
				_, _, _, lookups, _ := s.Meta.Stats()
				for name, want := range map[string]int64{
					"cache.hits":     st.Storage.Cache.Hits,
					"cache.misses":   st.Storage.Cache.Misses,
					"breaker.trips":  opens,
					"breaker.closes": closes,
					"meta.lookups":   lookups + m["meta.lookup_errors"],
				} {
					if got, ok := m[name]; !ok || got != want {
						t.Errorf("%s: %s = %d (present %v), owner says %d", stage, name, got, ok, want)
					}
				}
				return m
			}

			run(1, 4)
			before := check("before swap")
			c := in.Counts()
			if c.StorageReads == 0 || c.CorruptWrites == 0 || c.MetaBlackouts == 0 {
				t.Fatalf("fault mix did not fire: %+v", c)
			}
			for _, name := range []string{"cache.misses", "breaker.trips", "meta.lookups", "meta.lookup_errors", "storage.consume_errors"} {
				if before[name] == 0 {
					t.Errorf("%s = 0 before swap; the workload does not exercise it", name)
				}
			}

			s.SetObserver(NewObserver(0))
			submitted = 0
			run(4, 6)
			after := check("after swap")
			if got := after["jobs.submitted"]; got != int64(submitted) {
				t.Errorf("jobs.submitted = %d after swap, want the new observer's %d", got, submitted)
			}
			for _, name := range []string{"cache.hits", "cache.misses", "breaker.trips", "breaker.closes"} {
				if after[name] < before[name] {
					t.Errorf("%s fell from %d to %d across the observer swap", name, before[name], after[name])
				}
			}
			if after["cache.misses"] == before["cache.misses"] {
				t.Errorf("cache.misses did not grow after the swap (%d)", after["cache.misses"])
			}
		})
	}
}
