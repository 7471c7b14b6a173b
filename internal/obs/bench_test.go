package obs

import (
	"fmt"
	"testing"
)

// BenchmarkTraceEmit prices building a realistic job trace (a submit root
// with an execute span holding 24 vertex children) and exporting it as
// normalized JSON — the full per-job tracing cost excluding the job
// itself.
func BenchmarkTraceEmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := &Span{Name: "submit", Start: 0, End: 500, Attrs: []Attr{A("job", "bench"), A("vc", "vc1")}}
		root.Child("admission", 0, 0)
		root.Child("optimize", 0, 0, A("views_used", "1"), A("views_built", "1"))
		ex := root.Child("execute", 0, 480, A("attempt", "1"))
		for v := 0; v < 24; v++ {
			ex.Child("Filter", float64(v), float64(v+3),
				A("site", fmt.Sprintf("%d/Filter", v)), A("rows", "1000"))
		}
		root.Child("publish", 480, 480, A("path", "/views/sig/bench.ss"))
		tr := &Trace{JobID: "bench", Root: root}
		if len(tr.JSON()) == 0 {
			b.Fatal("empty export")
		}
	}
}

// BenchmarkSnapshot prices one Registry.Snapshot over a service-sized
// instrument population (40 counters, 4 histograms) — the cost a
// monitoring poll pays.
func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("counter.%02d", i)).Add(int64(i))
	}
	for i := 0; i < 4; i++ {
		h := r.Histogram(fmt.Sprintf("hist.%d", i))
		for v := int64(1); v < 1000; v *= 3 {
			h.Observe(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := r.Snapshot()
		if len(snap.Counters) != 40 {
			b.Fatalf("lost counters: %d", len(snap.Counters))
		}
	}
}

// BenchmarkCounterAdd prices the hot-path instrument bump (resolved
// pointer, atomic add) — what an installed observer costs per event.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("hot")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
