package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestInstruments(t *testing.T) {
	var c, f Counter
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	f.Add(5)
	if got := f.Value(); got != 5 {
		t.Fatalf("second counter = %d, want 5", got)
	}
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, -4} {
		h.Observe(v)
	}
	hs := h.Snapshot()
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
	if hs := (&Histogram{}).Snapshot(); hs.Count != 0 || hs.Buckets != nil {
		t.Fatalf("empty histogram snapshot = %+v, want zero", hs)
	}
}

// TestInstrumentsConcurrent bumps shared and per-worker instruments from
// many goroutines while snapshots run — no count may be lost (run under
// -race by make race).
func TestInstrumentsConcurrent(t *testing.T) {
	const workers, perWorker = 8, 200
	var (
		shared [17]Counter
		perW   [workers]Counter
		hist   Histogram
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shared[i%17].Inc()
				perW[w].Inc()
				hist.Observe(int64(i))
				if i%50 == 0 {
					_ = hist.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for i := range shared {
		total += shared[i].Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", total, workers*perWorker)
	}
	for w := range perW {
		if got := perW[w].Value(); got != perWorker {
			t.Fatalf("per-worker counter w.%d = %d, want %d", w, got, perWorker)
		}
	}
	if hs := hist.Snapshot(); hs.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*perWorker)
	}
}

// TestSnapshotJSONDeterministic pins that a MetricsSnapshot built from
// instruments marshals to identical bytes across repeated snapshots of
// unchanged state.
func TestSnapshotJSONDeterministic(t *testing.T) {
	var (
		counters [20]Counter
		hists    [20]Histogram
	)
	for i := range counters {
		counters[i].Add(int64(i))
		hists[i].Observe(int64(i * 3))
	}
	snapshot := func() MetricsSnapshot {
		snap := MetricsSnapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
		for i := range counters {
			snap.Counters[fmt.Sprintf("m.%02d", i)] = counters[i].Value()
			snap.Histograms[fmt.Sprintf("h.%02d", i)] = hists[i].Snapshot()
		}
		return snap
	}
	a, err := json.Marshal(snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snapshot())
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
