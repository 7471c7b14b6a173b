package workload_test

import (
	"fmt"
	"testing"

	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// BenchmarkRepositoryAppend is the write side of the repository: ingesting
// a synthetic log in one Append, the per-signature fold included — the
// cost that buys the analyzer's whole-history path its skipped pass.
func BenchmarkRepositoryAppend(b *testing.B) {
	sizes := []int{10_000, 200_000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		obs := workgen.Generate(workgen.DefaultProfile("append", 99)).SyntheticUntil(n)[:n]
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := workload.NewRepository()
				r.Append(obs...)
				if r.NumJobs() == 0 {
					b.Fatal("no jobs indexed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/obs")
		})
	}
}
