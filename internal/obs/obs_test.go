package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs.completed")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if got := r.Counter("jobs.completed").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	f := r.Counter("jobs.failed")
	f.Add(5)
	if got := r.Counter("jobs.failed").Value(); got != 5 {
		t.Fatalf("second counter = %d, want 5", got)
	}
	h := r.Histogram("job.latency_ticks")
	for _, v := range []int64{0, 1, 2, 3, 100, -4} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["job.latency_ticks"]
	if hs.Count != 6 || hs.Sum != 106 {
		t.Fatalf("histogram count/sum = %d/%d, want 6/106", hs.Count, hs.Sum)
	}
	// Buckets: v=0 and v=-4 land in le=0; v=1 in le=1; 2,3 in le=3; 100 in le=127.
	want := []BucketCount{{Le: 0, Count: 2}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 127, Count: 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if snap.Counters["jobs.completed"] != 3 || snap.Counters["jobs.failed"] != 5 {
		t.Fatalf("snapshot values wrong: %+v", snap)
	}
}

// TestRegistryConcurrent registers and bumps instruments from many
// goroutines while snapshots run — the copy-on-write index must never
// lose a registration or a count (run under -race in check.sh).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter(fmt.Sprintf("c.%d", i%17)).Inc()
				r.Counter(fmt.Sprintf("w.%d", w)).Inc()
				r.Histogram("h.shared").Observe(int64(i))
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for i := 0; i < 17; i++ {
		total += snap.Counters[fmt.Sprintf("c.%d", i)]
	}
	if total != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", total, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := snap.Counters[fmt.Sprintf("w.%d", w)]; got != perWorker {
			t.Fatalf("per-worker counter w.%d = %d, want %d", w, got, perWorker)
		}
	}
	if snap.Histograms["h.shared"].Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", snap.Histograms["h.shared"].Count, workers*perWorker)
	}
}

// TestSnapshotJSONDeterministic pins that a MetricsSnapshot marshals to
// identical bytes across repeated snapshots of unchanged state.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("m.%02d", i)).Add(int64(i))
		r.Histogram(fmt.Sprintf("h.%02d", i)).Observe(int64(i * 3))
	}
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON drifted:\n%s\n%s", a, b)
	}
}

// buildTrace assembles the same logical tree with children appended in
// the given order — simulating scheduler-dependent arrival.
func buildTrace(order []int) *Trace {
	root := &Span{Name: "submit", Start: 0, End: 100}
	ex := root.Child("execute", 1, 90, A("attempt", "1"))
	vertices := []*Span{
		{Name: "Filter", Start: 5, End: 9, Attrs: []Attr{A("site", "1/Filter"), A("rows", "10")}},
		{Name: "Extract", Start: 1, End: 5, Attrs: []Attr{A("site", "0/Extract")}},
		{Name: "Filter", Start: 5, End: 7, Attrs: []Attr{A("site", "2/Filter")}},
	}
	for _, i := range order {
		ex.Children = append(ex.Children, vertices[i].clone())
	}
	root.Child("publish", 90, 90, A("path", "/views/x"))
	return &Trace{JobID: "job-1", Root: root}
}

func TestTraceJSONOrderNormalized(t *testing.T) {
	a := buildTrace([]int{0, 1, 2}).JSON()
	b := buildTrace([]int{2, 0, 1}).JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized export differs by arrival order:\n%s\n%s", a, b)
	}
	// The export must be valid JSON and byte-stable across repeat calls.
	var decoded map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a)
	}
	tr := buildTrace([]int{1, 2, 0})
	if !bytes.Equal(tr.JSON(), tr.JSON()) {
		t.Fatal("repeated JSON() of one trace differs")
	}
}

func TestTraceTickFormatting(t *testing.T) {
	tr := &Trace{JobID: "j", Root: &Span{Name: "submit", Start: 3, End: 4.5}}
	got := string(tr.JSON())
	want := `{"job":"j","root":{"name":"submit","start":3,"end":4.5}}`
	if got != want {
		t.Fatalf("JSON = %s, want %s", got, want)
	}
}

func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(2)
	for _, id := range []string{"a", "b", "c"} {
		ts.Put(&Trace{JobID: id, Root: &Span{Name: "submit"}})
	}
	if _, ok := ts.Get("a"); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	if _, ok := ts.Get("c"); !ok {
		t.Fatal("newest trace missing")
	}
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	// Replacing a resident job does not evict.
	ts.Put(&Trace{JobID: "b", Root: &Span{Name: "submit", Start: 9}})
	tr, ok := ts.Get("b")
	if !ok || tr.Root.Start != 9 {
		t.Fatal("re-put should replace the resident trace")
	}
	if ts.Len() != 2 {
		t.Fatalf("Len after replace = %d, want 2", ts.Len())
	}
}
