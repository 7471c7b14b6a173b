package optimizer

import (
	"testing"

	"cloudviews/internal/metadata"
)

// BenchmarkOptimizeFrontend measures the per-job optimizer cost across the
// three frontend paths a submission can take:
//
//   - noreuse: annotations come back from the lookup but none match the
//     job's signatures (an inverted-index false positive) — the common case
//     for jobs with nothing to share;
//   - use: a materialized view exists and the plan search rewrites the
//     matching subgraph to a ViewScan (the paper's −17% path);
//   - build: no view exists yet, so the follow-up phase injects a
//     materialization and re-runs the plan search (the paper's +28% path).
func BenchmarkOptimizeFrontend(b *testing.B) {
	b.Run("noreuse", func(b *testing.B) {
		env := newEnv(b)
		env.meta.LoadAnalysis([]metadata.Annotation{{
			NormSig:    "ffff-not-in-this-job",
			Tags:       []string{"logs"},
			AvgRuntime: 10,
		}})
		anns := env.relevant(b)
		job := pipeline("g1").Output("o")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, d := env.opt.Optimize(job, "bench-job", anns, 0)
			if len(d.ViewsBuilt)+len(d.ViewsUsed) != 0 {
				b.Fatal("unexpected decisions on no-reuse path")
			}
		}
	})

	b.Run("use", func(b *testing.B) {
		env := newEnv(b)
		agg := pipeline("g1")
		sig := annotate(b, env, agg)
		env.meta.ReportMaterialized(metadata.ViewInfo{
			PreciseSig: sig.Precise, NormSig: sig.Normalized, Path: "/v/bench",
			Rows: 40, Bytes: 4000, ExpiresAt: 1 << 40,
		})
		anns := env.relevant(b)
		job := pipeline("g1").Output("o")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, d := env.opt.Optimize(job, "bench-job", anns, 0)
			if len(d.ViewsUsed) != 1 {
				b.Fatal("view not used")
			}
		}
	})

	b.Run("build", func(b *testing.B) {
		env := newEnv(b)
		agg := pipeline("g1")
		annotate(b, env, agg)
		anns := env.relevant(b)
		job := pipeline("g1").Output("o")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Same jobID every iteration: the build lock is re-entrant for
			// its holder, so every iteration takes the full build path.
			_, d := env.opt.Optimize(job, "bench-job", anns, 0)
			if len(d.ViewsBuilt) != 1 {
				b.Fatal("view not built")
			}
		}
	})
}
