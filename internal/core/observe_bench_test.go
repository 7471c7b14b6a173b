package core

import (
	"context"
	"testing"
)

// benchSubmitService warms a reuse-hitting service for the submit
// benchmarks: history seeded, analyzer run, and the instance's shared
// view already built, so every measured iteration runs the steady-state
// pipeline (lookup → reuse → execute → record).
func benchSubmitService(b *testing.B, obs string) (*Service, JobSpec) {
	b.Helper()
	s := newService(b)
	s.Config.ValidateResults = false
	seedHistory(b, s)
	deliver(b, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("warm", 1)); err != nil {
		b.Fatal(err)
	}
	switch obs {
	case "off":
		s.SetObserver(nil) // every hook seam nil — the no-op baseline
	case "metrics":
		s.SetObserver(NewObserver(-1)) // counters on, tracing off
	case "trace":
		// default observer: metrics + tracing
	}
	return s, specB("bench", 1)
}

// BenchmarkSubmit measures one warmed reuse-path submission under three
// observability levels. scripts/check.sh guards the allocs/op delta of
// obs=off vs obs=metrics (the always-on hooks) within OBS_ALLOC_BUDGET;
// obs=trace shows the opt-out cost of full span capture
// (SetObserver(NewObserver(-1)) turns it off).
func BenchmarkSubmit(b *testing.B) {
	for _, mode := range []string{"off", "metrics", "trace"} {
		b.Run("obs="+mode, func(b *testing.B) {
			s, spec := benchSubmitService(b, mode)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot prices one Service.Snapshot of a warmed service with
// the default observer — the cost a monitoring poll pays.
func BenchmarkSnapshot(b *testing.B) {
	s, _ := benchSubmitService(b, "trace")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.Snapshot(); len(st.Metrics.Counters) != 22 {
			b.Fatalf("lost counters: %d", len(st.Metrics.Counters))
		}
	}
}
