package analyzer

import (
	"fmt"
	"testing"

	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// benchCfg is the representative production-shaped analyzer run: the
// paper's thrice-appearing / 20%-of-job-cost thresholds with density
// selection bounded at 20 views.
var benchCfg = Config{
	MinFrequency: 3,
	MinCostRatio: 0.05,
	MinRuntime:   10,
	TopK:         20,
	Strategy:     TopKUtilityPerByte,
}

// benchRepos caches one repository per observation count — generation
// costs more than a benchmark iteration and must not be re-paid per size
// sweep.
var benchRepos = map[int]*workload.Repository{}

func benchRepo(b *testing.B, n int) *workload.Repository {
	if r, ok := benchRepos[n]; ok {
		return r
	}
	p := workgen.DefaultProfile("bench", 99)
	obs := workgen.Generate(p).SyntheticUntil(n)
	if len(obs) < n {
		b.Fatalf("generated %d observations, want >= %d", len(obs), n)
	}
	r := workload.NewRepository()
	r.Append(obs[:n]...)
	benchRepos[n] = r
	return r
}

func benchSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{10_000, 100_000}
	}
	return []int{10_000, 100_000, 500_000}
}

// BenchmarkAnalyzerAnalyze is the end-to-end pipeline on both of its
// paths. history=whole reads the repository's write-time fold: finalize,
// select, annotate, coordinate. history=windowed drops the first instance,
// so it folds nearly the whole log off the snapshot: fold, finalize,
// select, annotate, coordinate. history=instance folds one instance's
// runs, the shape of the benchmark's per-round re-mines.
func BenchmarkAnalyzerAnalyze(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, n)
		windowed, instance := benchCfg, benchCfg
		windowed.WindowFrom = 1
		instance.WindowFrom = lastInstance(repo) / 2
		instance.WindowTo = instance.WindowFrom
		for _, v := range []struct {
			name   string
			cfg    Config
			folded bool
		}{{"whole", benchCfg, true}, {"windowed", windowed, false}, {"instance", instance, false}} {
			b.Run(fmt.Sprintf("history=%s/obs=%d", v.name, n), func(b *testing.B) {
				a := New(repo)
				if _, folded := a.analyzeFolded(v.cfg); folded != v.folded {
					b.Fatalf("served from the write-time fold = %v, want %v", folded, v.folded)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					an := a.Analyze(v.cfg)
					if an.TotalSubgraphs == 0 || an.TotalSubgraphs > n || v.folded && an.TotalSubgraphs != n {
						b.Fatalf("analyzed %d subgraphs of %d", an.TotalSubgraphs, n)
					}
				}
			})
		}
	}
}

// BenchmarkAnalyzerSerial is the pinned reference walk over the same
// repositories.
func BenchmarkAnalyzerSerial(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, n)
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			a := New(repo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				an := a.Serial(benchCfg)
				if an.TotalSubgraphs != n {
					b.Fatalf("analyzed %d subgraphs, want %d", an.TotalSubgraphs, n)
				}
			}
		})
	}
}

// BenchmarkAnalyzerAggregateSerial is the group-materializing serial
// aggregation the folds replaced.
func BenchmarkAnalyzerAggregateSerial(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, n)
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			periods := repo.InputPeriods()
			from, to := analysisWindow(benchCfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obs := filterScope(repo.Window(from, to), benchCfg)
				if cands := aggregate(obs, periods, benchCfg); len(cands) == 0 {
					b.Fatal("no candidates mined")
				}
			}
		})
	}
}

// BenchmarkAnalyzerOverlapStats is the Figures 1–5 statistics pass.
func BenchmarkAnalyzerOverlapStats(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, n)
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			a := New(repo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := a.OverlapStats(benchCfg)
				if st.TotalOccurrences != n {
					b.Fatalf("stats over %d occurrences, want %d", st.TotalOccurrences, n)
				}
			}
		})
	}
}

// BenchmarkAnalyzerOverlapStatsSerial is the serial statistics reference.
func BenchmarkAnalyzerOverlapStatsSerial(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, n)
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			from, to := analysisWindow(benchCfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obs := filterScope(repo.Window(from, to), benchCfg)
				st := computeOverlapStatsSerial(obs)
				if st.TotalOccurrences != n {
					b.Fatalf("stats over %d occurrences, want %d", st.TotalOccurrences, n)
				}
			}
		})
	}
}
