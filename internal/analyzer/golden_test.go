package analyzer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// goldenProfiles are three workload shapes spanning the overlap spectrum:
// the default mid-overlap cluster, a bespoke low-overlap cluster, and a
// clone-heavy duplicate-ridden one.
func goldenProfiles() []workgen.Profile {
	p1 := workgen.DefaultProfile("gold1", 11)
	p2 := workgen.DefaultProfile("gold2", 22)
	p2.CloneRate = 0.15
	p2.UniqueInputRate = 0.9
	p2.Templates = 60
	p3 := workgen.DefaultProfile("gold3", 33)
	p3.CloneRate = 0.9
	p3.DuplicateJobRate = 0.3
	p3.Templates = 80
	return []workgen.Profile{p1, p2, p3}
}

func goldenRepo(t testing.TB, p workgen.Profile, minObs int) *workload.Repository {
	t.Helper()
	obs := workgen.Generate(p).SyntheticUntil(minObs)
	if len(obs) < minObs {
		t.Fatalf("profile %s: generated %d observations, want >= %d", p.Name, len(obs), minObs)
	}
	repo := workload.NewRepository()
	repo.Append(obs...)
	return repo
}

// interleavedRepo is goldenRepo with the profile's job blocks appended in
// a seeded shuffle, so record order is not instance order: instances
// interleave and each splits into many runs. A fold that visited the
// window by instance rather than by record order would sum in a different
// order and diverge from Serial.
func interleavedRepo(t testing.TB, p workgen.Profile, minObs int) *workload.Repository {
	t.Helper()
	obs := goldenRepo(t, p, minObs).Snapshot()
	var blocks [][]workload.Observation
	for lo := 0; lo < len(obs); {
		hi := lo + 1
		for hi < len(obs) && obs[hi].Job.JobID == obs[lo].Job.JobID {
			hi++
		}
		blocks = append(blocks, obs[lo:hi])
		lo = hi
	}
	rand.New(rand.NewSource(p.Seed)).Shuffle(len(blocks), func(i, j int) {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	})
	repo := workload.NewRepository()
	for _, b := range blocks {
		repo.Append(b...)
	}
	instances := map[int64]bool{}
	for _, o := range obs {
		instances[o.Job.Instance] = true
	}
	if _, runs := repo.WindowRuns(math.MinInt64, math.MaxInt64); len(runs) <= 2*len(instances) {
		t.Fatalf("profile %s: %d runs over %d instances, want the instances to interleave", p.Name, len(runs), len(instances))
	}
	return repo
}

// namedRepo is one golden repository and the cluster its profile names.
type namedRepo struct {
	name, cluster string
	repo          *workload.Repository
}

// goldenRepos returns a repository per golden profile — the first twice
// the size of the others — plus the first profile again in interleaved
// record order.
func goldenRepos(t testing.TB) []namedRepo {
	t.Helper()
	var out []namedRepo
	profiles := goldenProfiles()
	for pi, p := range profiles {
		minObs := 6000
		if pi == 0 {
			minObs = 12000
		}
		out = append(out, namedRepo{p.Name, p.Name, goldenRepo(t, p, minObs)})
	}
	p := profiles[0]
	return append(out, namedRepo{p.Name + "-interleaved", p.Name, interleavedRepo(t, p, 6000)})
}

// goldenCase is one analyzer config and whether Analyze serves it from the
// repository's write-time fold (analyzeFolded) rather than the snapshot.
type goldenCase struct {
	cfg    Config
	folded bool
}

// goldenConfigs exercises every Strategy and every admin knob, including
// the combinations that steer selectViews between the bounded heap and the
// full sort, scoped runs and windowed runs, over a repository whose instances run 0..lastInstance.
func goldenConfigs(cluster string, lastInstance int64) []goldenCase {
	return []goldenCase{
		{Config{}, true},
		{recurringCfg, true},
		{Config{Strategy: TopKUtility, TopK: 5}, true},
		{Config{Strategy: TopKUtility, TopK: 5, MaxPerJob: 1}, true},
		{Config{Strategy: TopKUtilityPerByte, TopK: 8}, true},
		{Config{Strategy: TopKUtilityPerByte, TopK: 8, MaxPerJob: 1}, true},
		{Config{Strategy: TopKUtilityPerByte}, true},
		{Config{Strategy: PackStorageBudget, TopK: 6}, true},
		{Config{Strategy: PackStorageBudget, TopK: 6, StorageBudget: 1 << 22}, true},
		{Config{Strategy: PackStorageBudget, StorageBudget: 1 << 21}, true},
		{Config{Strategy: PackStorageBudgetOptimal, StorageBudget: 1 << 21}, true},
		{Config{MinFrequency: 3, MinCostRatio: 0.05, MinRuntime: 10, TopK: 10, Strategy: TopKUtilityPerByte}, true},
		{Config{WindowFrom: 0, WindowTo: lastInstance, TopK: 7}, true},
		{Config{WindowFrom: 1, WindowTo: 3}, false},
		{Config{WindowFrom: 1, WindowTo: 0}, false},
		{Config{WindowFrom: 0, WindowTo: lastInstance - 1}, false},
		{Config{VCs: []string{"bu1_vc0", "bu2_vc1"}, Strategy: TopKUtilityPerByte, TopK: 4}, false},
		{Config{Clusters: []string{cluster}, BusinessUnits: []string{"bu0", "bu3"}}, false},
	}
}

// lastInstance returns the largest instance recorded in repo.
func lastInstance(repo *workload.Repository) int64 {
	var last int64
	for _, o := range repo.Snapshot() {
		last = max(last, o.Job.Instance)
	}
	return last
}

// checkPaths diffs every analyzer path against Serial for one config: the
// path Analyze takes, the snapshot fold over the window's runs, and — when
// the config reads the whole fold — the write-time fold, asserting which
// one that is.
func checkPaths(t *testing.T, name string, a *Analyzer, gc goldenCase) {
	t.Helper()
	want := a.Serial(gc.cfg)
	if got := a.Analyze(gc.cfg); !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Analyze diverges from Serial\nserial:  %+v\nanalyze: %+v", name, summary(want), summary(got))
	}
	if got := a.analyzeSnapshot(gc.cfg); !reflect.DeepEqual(want, got) {
		t.Errorf("%s: snapshot fold diverges from Serial\nserial:   %+v\nsnapshot: %+v", name, summary(want), summary(got))
	}
	got, folded := a.analyzeFolded(gc.cfg)
	if folded != gc.folded {
		t.Errorf("%s: served from the write-time fold = %v, want %v", name, folded, gc.folded)
	}
	if folded && !reflect.DeepEqual(want, got) {
		t.Errorf("%s: write-time fold diverges from Serial\nserial: %+v\nfolded: %+v", name, summary(want), summary(got))
	}
}

// TestAnalyzerGolden pins both Analyze paths — the write-time fold and the
// snapshot fold over the window's runs — to the serial reference: for
// every golden repository and config, each must equal Serial on every
// field — candidate order, selection, annotations, job order, and every
// float bit in between — and each config must take the path it is listed
// with.
func TestAnalyzerGolden(t *testing.T) {
	for _, g := range goldenRepos(t) {
		a := New(g.repo)
		for ci, gc := range goldenConfigs(g.cluster, lastInstance(g.repo)) {
			checkPaths(t, fmt.Sprintf("repository %s config %d", g.name, ci), a, gc)
		}
	}
}

func summary(an *Analysis) string {
	return fmt.Sprintf("jobs=%d subs=%d cands=%d selected=%d anns=%d order=%v",
		an.TotalJobs, an.TotalSubgraphs, len(an.Candidates), len(an.Selected),
		len(an.Annotations), an.JobOrder)
}

// TestOverlapStatsGolden pins the statistics fold to the serial reference
// over the same repository/config matrix, plus the public
// ComputeOverlapStats entry point and the empty input.
func TestOverlapStatsGolden(t *testing.T) {
	for _, g := range goldenRepos(t) {
		a := New(g.repo)
		for ci, gc := range goldenConfigs(g.cluster, lastInstance(g.repo)) {
			from, to := analysisWindow(gc.cfg)
			want := computeOverlapStatsSerial(filterScope(g.repo.Window(from, to), gc.cfg))
			if got := a.OverlapStats(gc.cfg); !reflect.DeepEqual(want, got) {
				t.Errorf("repository %s config %d: OverlapStats diverges from serial", g.name, ci)
			}
		}
		obs := g.repo.Snapshot()
		if want, got := computeOverlapStatsSerial(obs), ComputeOverlapStats(obs); !reflect.DeepEqual(want, got) {
			t.Errorf("repository %s: ComputeOverlapStats diverges from serial", g.name)
		}
	}
	if want, got := computeOverlapStatsSerial(nil), ComputeOverlapStats(nil); !reflect.DeepEqual(want, got) {
		t.Errorf("empty input: ComputeOverlapStats = %+v, serial = %+v", got, want)
	}
}

// TestAnalyzerConcurrent runs both Analyze paths and OverlapStats from
// several goroutines while Append keeps growing the repository — the
// race-detector companion to the Snapshot aliasing contract.
func TestAnalyzerConcurrent(t *testing.T) {
	p := workgen.DefaultProfile("conc", 7)
	obs := workgen.Generate(p).SyntheticUntil(9000)
	repo := workload.NewRepository()
	repo.Append(obs[:4500]...)
	a := New(repo)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 4500; i < len(obs); i += 500 {
			end := i + 500
			if end > len(obs) {
				end = len(obs)
			}
			repo.Append(obs[i:end]...)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{Strategy: Strategy(g % 3), TopK: 5 + g}
			for i := 0; i < 3; i++ {
				for _, an := range []*Analysis{a.Analyze(cfg), a.analyzeSnapshot(cfg)} {
					if an.TotalSubgraphs < 4500 {
						t.Errorf("goroutine %d: analysis saw %d subgraphs, want >= 4500", g, an.TotalSubgraphs)
					}
				}
				st := a.OverlapStats(cfg)
				if st.TotalOccurrences < 4500 {
					t.Errorf("goroutine %d: stats saw %d occurrences, want >= 4500", g, st.TotalOccurrences)
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles the result must match a serial run over the
	// complete repository.
	cfg := Config{Strategy: TopKUtilityPerByte, TopK: 10}
	if want, got := a.Serial(cfg), a.Analyze(cfg); !reflect.DeepEqual(want, got) {
		t.Errorf("post-concurrency analysis diverges from serial")
	}
}

// TestTopKByDensity pins the bounded heap against the full sort it
// replaces, across random pools and every cut point.
func TestTopKByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		pool := make([]Candidate, n)
		for i := range pool {
			pool[i] = Candidate{
				NormSig:  fmt.Sprintf("sig%04d", rng.Intn(1000)),
				Utility:  float64(rng.Intn(50)), // duplicates force tie-breaks
				AvgBytes: float64(rng.Intn(5)),  // zeros hit the bytes<=0 branch
			}
		}
		want := append([]Candidate(nil), pool...)
		sort.Slice(want, func(i, j int) bool { return denseBefore(want[i], want[j]) })
		k := 1 + rng.Intn(n+2)
		if k < len(want) {
			want = want[:k]
		}
		got := topKByDensity(append([]Candidate(nil), pool...), k)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (n=%d k=%d): heap top-k != sort prefix\nwant %v\ngot  %v", trial, n, k, want, got)
		}
	}
}

// TestFilterScopeAliasing pins filterScope's zero-copy fast path: an
// unscoped config returns the input slice itself, a scoped one a fresh
// slice.
func TestFilterScopeAliasing(t *testing.T) {
	obs := []workload.Observation{
		{Job: workload.JobMeta{JobID: "a", VC: "vc1"}},
		{Job: workload.JobMeta{JobID: "b", VC: "vc2"}},
	}
	if got := filterScope(obs, Config{}); len(got) != 2 || &got[0] != &obs[0] {
		t.Errorf("unscoped filterScope should alias its input")
	}
	got := filterScope(obs, Config{VCs: []string{"vc2"}})
	if len(got) != 1 || got[0].Job.JobID != "b" {
		t.Fatalf("scoped filterScope = %v", got)
	}
	if &got[0] == &obs[0] || &got[0] == &obs[1] {
		t.Errorf("scoped filterScope must copy")
	}
}
