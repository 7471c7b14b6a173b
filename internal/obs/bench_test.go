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

// BenchmarkCounterAdd prices the hot-path instrument bump (one atomic
// add on a padded counter) — what an installed observer costs per event.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
