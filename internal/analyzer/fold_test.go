package analyzer

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cloudviews/internal/plan"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// TestAnalyzeEdgeRepositories diffs every path against Serial on the
// smallest repositories, where nil-versus-empty slices decide DeepEqual:
// an empty repository, a single observation, and one overlap whose
// observations read no inputs and carry an empty user and template (both
// still count as values). A fourth pins coordination's overlap
// count: job "a", recorded twice, ties job "b" on runtime, so "b" — one
// occurrence to a's two — must build, though "a" sorts first by ID.
func TestAnalyzeEdgeRepositories(t *testing.T) {
	obs := func(job string, instance int64, inputs []string) workload.Observation {
		return workload.Observation{
			Job:     workload.JobMeta{JobID: job, User: "u", TemplateID: "tpl", Instance: instance, Period: 1},
			NormSig: "sig", RootOp: plan.OpHashGbAgg, Rows: 10, Bytes: 100, CumulativeCost: 500,
			JobCPU: 1000, JobLatency: 7, Inputs: inputs,
		}
	}
	one := workload.NewRepository()
	one.Append(obs("j1", 3, []string{"t"}))
	noInputs := workload.NewRepository()
	bare1, bare2 := obs("j1", 0, nil), obs("j2", 1, nil)
	bare1.Job.User, bare1.Job.TemplateID = "", ""
	bare2.Job.User, bare2.Job.TemplateID = "", ""
	noInputs.Append(bare1, bare2)
	tie := workload.NewRepository()
	tie.Append(obs("a", 0, []string{"t"}), obs("b", 0, []string{"t"}), obs("a", 1, []string{"t"}))

	cases := []struct {
		name  string
		repo  *workload.Repository
		cases []goldenCase
	}{
		{"empty", workload.NewRepository(), []goldenCase{
			{Config{}, true},
			{Config{WindowFrom: 5, WindowTo: 9}, true},
			{Config{VCs: []string{"vc"}}, false},
		}},
		{"one observation", one, []goldenCase{
			{Config{}, true},
			{Config{WindowFrom: 3, WindowTo: 3}, true},
			{Config{WindowFrom: 4}, false},
		}},
		{"no inputs", noInputs, []goldenCase{
			{Config{}, true},
			{Config{WindowFrom: 1}, false},
		}},
		{"runtime tie", tie, []goldenCase{
			{Config{}, true},
			{Config{WindowTo: 1}, true},
			{Config{WindowFrom: 1}, false},
		}},
	}
	for _, c := range cases {
		a := New(c.repo)
		for ci, gc := range c.cases {
			checkPaths(t, fmt.Sprintf("%s config %d", c.name, ci), a, gc)
		}
	}
	if an := New(noInputs).Analyze(Config{}); len(an.Candidates) != 1 ||
		an.Candidates[0].Inputs == nil || an.Candidates[0].UserCount != 1 {
		t.Errorf("no-inputs overlap: candidates %+v, want one with empty non-nil Inputs and one user", an.Candidates)
	}
	if an := New(tie).Analyze(Config{}); !reflect.DeepEqual(an.JobOrder, []string{"b"}) {
		t.Errorf("runtime tie: JobOrder = %v, want [b] (fewer overlaps builds)", an.JobOrder)
	}
}

// TestAnalyzeIncremental analyzes a repository mid-way through its log —
// the split falls inside a job — then appends the rest: the write-time
// fold must end exactly where a repository given the whole log at once
// does.
func TestAnalyzeIncremental(t *testing.T) {
	obs := workgen.Generate(workgen.DefaultProfile("incr", 5)).SyntheticUntil(6000)
	half := len(obs)/2 + 3
	repo := workload.NewRepository()
	repo.Append(obs[:half]...)
	a := New(repo)
	cfg := Config{Strategy: TopKUtilityPerByte, TopK: 10}
	if _, ok := a.analyzeFolded(cfg); !ok {
		t.Fatal("a whole-history config did not read the write-time fold")
	}
	repo.Append(obs[half:]...)

	fresh := workload.NewRepository()
	fresh.Append(obs...)
	want := New(fresh).Analyze(cfg)
	if got := a.Analyze(cfg); !reflect.DeepEqual(want, got) {
		t.Errorf("incremental fold diverges from a fresh one\nfresh:       %+v\nincremental: %+v", summary(want), summary(got))
	}
	if got := a.Serial(cfg); !reflect.DeepEqual(want, got) {
		t.Errorf("fresh fold diverges from Serial")
	}
}

// TestAnalyzeCopiesOut pins that a returned analysis shares no slice with
// the live write-time fold: scribbling over JobIDs and every candidate's
// Jobs, Tags and Inputs leaves the next Analyze equal to Serial.
func TestAnalyzeCopiesOut(t *testing.T) {
	repo := goldenRepo(t, goldenProfiles()[0], 3000)
	a := New(repo)
	first := a.Analyze(Config{})
	if len(first.Candidates) == 0 || len(first.JobIDs) == 0 {
		t.Fatal("no candidates to mutate")
	}
	for k := range first.JobIDs {
		first.JobIDs[k] = "mutated"
	}
	for i := range first.Candidates {
		c := &first.Candidates[i]
		for k := range c.Jobs {
			c.Jobs[k] = -1
		}
		for _, s := range [][]string{c.Tags, c.Inputs} {
			for k := range s {
				s[k] = "mutated"
			}
		}
	}
	if want, got := a.Serial(Config{}), a.Analyze(Config{}); !reflect.DeepEqual(want, got) {
		t.Errorf("mutating a returned analysis changed the next one")
	}
}

// TestAnalyzeSurvivesSaveLoad pins the write-time fold across persistence:
// Load rebuilds it from the stream, so a loaded repository analyzes
// exactly like the original on every golden config — here with one job ID
// recorded again in a later instance, which folds as a repeat of an early
// job rather than a new one.
func TestAnalyzeSurvivesSaveLoad(t *testing.T) {
	p := goldenProfiles()[2]
	obs := workgen.Generate(p).SyntheticUntil(4000)
	repo := workload.NewRepository()
	repo.Append(obs...)
	last := lastInstance(repo) + 1
	var again []workload.Observation
	for _, o := range obs {
		if o.Job.JobID == obs[0].Job.JobID {
			o.Job.Instance = last
			again = append(again, o)
		}
	}
	repo.Append(again...)

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumJobs() != repo.NumJobs() {
		t.Errorf("NumJobs = %d after load, %d before", loaded.NumJobs(), repo.NumJobs())
	}
	for ci, gc := range goldenConfigs(p.Name, last) {
		name := fmt.Sprintf("config %d", ci)
		if want, got := New(repo).Analyze(gc.cfg), New(loaded).Analyze(gc.cfg); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: loaded repository analyzes differently\noriginal: %+v\nloaded:   %+v", name, summary(want), summary(got))
		}
		checkPaths(t, name+" (loaded)", New(loaded), gc)
	}
}

// TestAnalyzeFoldedAllocs gates the allocations of a whole-history
// Analyze under the benchmark's recurring config, on a fixed 400-template
// repository: a count, so the gate is deterministic where a timing is
// not. The gate is the measured figure (5 399 allocations, against 8 161
// when every candidate's jobs were a slice of ID strings) plus 10%.
func TestAnalyzeFoldedAllocs(t *testing.T) {
	p := workgen.DefaultProfile("allocs", 99)
	p.Templates = 400
	a := New(goldenRepo(t, p, 20000))
	if _, ok := a.analyzeFolded(recurringCfg); !ok {
		t.Fatal("a whole-history config did not read the write-time fold")
	}
	const gate = 5939
	allocs := testing.AllocsPerRun(5, func() { a.Analyze(recurringCfg) })
	if allocs > gate {
		t.Errorf("whole-history Analyze: %.0f allocations per run, gate %d", allocs, gate)
	}
}
