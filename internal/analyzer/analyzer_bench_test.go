package analyzer

import (
	"fmt"
	"testing"

	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// benchCfg is a production-shaped analyzer run: the paper's
// thrice-appearing threshold, a 5%-of-job-cost floor (the paper's
// production run used 20%), and density selection bounded at 20 views.
var benchCfg = Config{
	MinFrequency: 3,
	MinCostRatio: 0.05,
	MinRuntime:   10,
	TopK:         20,
	Strategy:     TopKUtilityPerByte,
}

// recurringCfg is the benchmark's recurring mine (recurringMine in
// benchmark/workloads.go): every signature seen twice that costs at least
// 10% of its job, at most one view per job, the top 50 by utility.
var recurringCfg = Config{MinFrequency: 2, MinCostRatio: 0.1, MaxPerJob: 1, TopK: 50}

// benchRepos caches one repository per template count and observation
// count — generation costs more than a benchmark iteration and must not
// be re-paid per size sweep.
var benchRepos = map[[2]int]*workload.Repository{}

// benchRepo returns a repository holding the first n synthetic
// observations of the "bench" profile with the given number of templates
// (0 keeps the profile's).
func benchRepo(tb testing.TB, templates, n int) *workload.Repository {
	key := [2]int{templates, n}
	if r, ok := benchRepos[key]; ok {
		return r
	}
	p := workgen.DefaultProfile("bench", 99)
	if templates > 0 {
		p.Templates = templates
	}
	obs := workgen.Generate(p).SyntheticUntil(n)
	if len(obs) < n {
		tb.Fatalf("generated %d observations, want >= %d", len(obs), n)
	}
	r := workload.NewRepository()
	r.Append(obs[:n]...)
	benchRepos[key] = r
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
// history=whole/cfg=recurring is the benchmark's analyzer_mine mine: a
// 400-template, 200k-observation log mined whole under recurringCfg.
func BenchmarkAnalyzerAnalyze(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, 0, n)
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
				benchAnalyze(b, repo, v.cfg, n, v.folded)
			})
		}
	}
	const n = 200_000
	repo := benchRepo(b, 400, n)
	b.Run(fmt.Sprintf("history=whole/cfg=recurring/templates=400/obs=%d", n), func(b *testing.B) {
		benchAnalyze(b, repo, recurringCfg, n, true)
	})
}

// benchAnalyze times Analyze(cfg) over repo, which holds n observations,
// after checking that cfg takes the path folded names.
func benchAnalyze(b *testing.B, repo *workload.Repository, cfg Config, n int, folded bool) {
	a := New(repo)
	if _, ok := a.analyzeFolded(cfg); ok != folded {
		b.Fatalf("served from the write-time fold = %v, want %v", ok, folded)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := a.Analyze(cfg)
		if an.TotalSubgraphs == 0 || an.TotalSubgraphs > n || folded && an.TotalSubgraphs != n {
			b.Fatalf("analyzed %d subgraphs of %d", an.TotalSubgraphs, n)
		}
	}
}

// BenchmarkAnalyzerSerial is the pinned reference walk over the same
// repositories.
func BenchmarkAnalyzerSerial(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, 0, n)
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
		repo := benchRepo(b, 0, n)
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			periods := repo.InputPeriods()
			from, to := analysisWindow(benchCfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obs := filterScope(repo.Window(from, to), benchCfg)
				index, _ := indexJobs(obs)
				if cands := aggregate(obs, index, periods); len(cands) == 0 {
					b.Fatal("no candidates mined")
				}
			}
		})
	}
}

// BenchmarkAnalyzerOverlapStats is the Figures 1–5 statistics pass.
func BenchmarkAnalyzerOverlapStats(b *testing.B) {
	for _, n := range benchSizes(b) {
		repo := benchRepo(b, 0, n)
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
		repo := benchRepo(b, 0, n)
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
