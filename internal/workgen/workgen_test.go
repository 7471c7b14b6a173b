package workgen

import (
	"context"
	"strings"
	"testing"

	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

func smallProfile(seed int64) Profile {
	p := DefaultProfile("test", seed)
	p.Templates = 40
	p.Users = 10
	p.RowsPerInput = 100
	return p
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(smallProfile(7))
	b := Generate(smallProfile(7))
	if len(a.Templates) != len(b.Templates) {
		t.Fatal("template counts differ")
	}
	ja := a.JobsForInstance(0)
	jb := b.JobsForInstance(0)
	if len(ja) != len(jb) {
		t.Fatalf("job counts differ: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		sa := signature.Of(ja[i].Root)
		sb := signature.Of(jb[i].Root)
		if sa != sb {
			t.Fatalf("job %d signatures differ across same-seed generations", i)
		}
	}
}

func TestClonedTemplatesShareSubgraphs(t *testing.T) {
	w := Generate(smallProfile(3))
	var clone *Template
	for _, tpl := range w.Templates {
		if tpl.ParentID != "" {
			clone = tpl
			break
		}
	}
	if clone == nil {
		t.Fatal("no cloned template generated at clone rate 0.6")
	}
	var parent *Template
	for _, tpl := range w.Templates {
		if tpl.ID == clone.ParentID {
			parent = tpl
		}
	}
	if parent == nil {
		t.Fatal("parent missing")
	}
	// The clone's plan contains a subgraph with the same normalized
	// signature as a subgraph of the parent's plan.
	comp := signature.NewComputer()
	parentSigs := map[string]bool{}
	for _, s := range comp.AllSubgraphs(w.Instantiate(parent, 0)) {
		parentSigs[s.Sig.Normalized] = true
	}
	overlap := 0
	for _, s := range comp.AllSubgraphs(w.Instantiate(clone, 0)) {
		if parentSigs[s.Sig.Normalized] {
			overlap++
		}
	}
	// At least scan + the shared prefix steps overlap.
	if overlap < clone.SharedPrefix {
		t.Errorf("clone overlaps on %d subgraphs, shared prefix is %d", overlap, clone.SharedPrefix)
	}
}

func TestInstancesNormalizeButDontMatchPrecisely(t *testing.T) {
	w := Generate(smallProfile(5))
	tpl := w.Templates[0]
	p0 := w.Instantiate(tpl, 0)
	w.DeliverInstance(1)
	p1 := w.Instantiate(tpl, 1)
	s0, s1 := signature.Of(p0), signature.Of(p1)
	if s0.Normalized != s1.Normalized {
		t.Error("recurring instances must share normalized signature")
	}
	if s0.Precise == s1.Precise {
		t.Error("recurring instances must differ precisely")
	}
}

func TestAllJobsExecute(t *testing.T) {
	w := Generate(smallProfile(11))
	ex := &exec.Executor{Catalog: w.Catalog, Store: storage.NewStore()}
	jobs := w.JobsForInstance(0)
	if len(jobs) < len(w.Templates) {
		t.Fatalf("only %d jobs for %d templates", len(jobs), len(w.Templates))
	}
	repo := workload.NewRepository()
	for _, j := range jobs {
		res, err := ex.RunCtx(context.Background(), j.Root, j.Meta.JobID, 0, 0)
		if err != nil {
			t.Fatalf("job %s: %v", j.Meta.JobID, err)
		}
		if res.TotalCPU <= 0 {
			t.Errorf("job %s has zero cost", j.Meta.JobID)
		}
		repo.Record(j.Meta, j.Root, res)
	}
	if repo.NumJobs() != len(jobs) {
		t.Error("repository missed jobs")
	}
}

func TestPeriodsGateSubmission(t *testing.T) {
	w := Generate(smallProfile(13))
	weekly := 0
	for _, tpl := range w.Templates {
		if tpl.Period == 7 {
			weekly++
		}
	}
	if weekly == 0 {
		t.Skip("no weekly templates in this seed")
	}
	w.DeliverInstance(1)
	for _, j := range w.JobsForInstance(1) {
		if j.Meta.Period == 7 {
			t.Error("weekly template submitted at instance 1")
		}
	}
}

func TestDuplicateJobsShareEverything(t *testing.T) {
	p := smallProfile(17)
	p.DuplicateJobRate = 1.0
	w := Generate(p)
	jobs := w.JobsForInstance(0)
	byTemplate := map[string][]Job{}
	for _, j := range jobs {
		byTemplate[j.Meta.TemplateID] = append(byTemplate[j.Meta.TemplateID], j)
	}
	foundDup := false
	for _, group := range byTemplate {
		if len(group) < 2 {
			continue
		}
		foundDup = true
		s0 := signature.Of(group[0].Root)
		s1 := signature.Of(group[1].Root)
		if s0.Precise != s1.Precise {
			t.Error("duplicate jobs must match precisely (full-job overlap)")
		}
		if group[0].Meta.JobID == group[1].Meta.JobID {
			t.Error("duplicate jobs need distinct IDs")
		}
		if !strings.Contains(group[1].Meta.JobID, "dup") {
			t.Error("duplicate naming convention broken")
		}
	}
	if !foundDup {
		t.Fatal("duplicate rate 1.0 produced no duplicates")
	}
}

func TestTenantStructure(t *testing.T) {
	w := Generate(smallProfile(19))
	vcs := map[string]bool{}
	bus := map[string]bool{}
	for _, tpl := range w.Templates {
		vcs[tpl.VC] = true
		bus[tpl.BU] = true
		if !strings.HasPrefix(tpl.VC, tpl.BU+"_") {
			t.Errorf("VC %s not under BU %s", tpl.VC, tpl.BU)
		}
	}
	if len(bus) != w.Profile.BusinessUnits {
		t.Errorf("BUs = %d, want %d", len(bus), w.Profile.BusinessUnits)
	}
	if len(vcs) < 2 {
		t.Error("degenerate VC distribution")
	}
}

func TestPlansAreValid(t *testing.T) {
	// Every generated plan derives a schema at every node and has an
	// Output root — i.e. applyStep kept the pipeline well formed.
	w := Generate(smallProfile(23))
	for _, tpl := range w.Templates {
		root := w.Instantiate(tpl, 0)
		if root.Kind != plan.OpOutput {
			t.Fatalf("template %s root is %v", tpl.ID, root.Kind)
		}
		plan.Walk(root, func(n *plan.Node) {
			if n.Schema() == nil {
				t.Errorf("template %s: node %v has nil schema", tpl.ID, n)
			}
		})
	}
}

func TestHeavyDuplicateTail(t *testing.T) {
	p := smallProfile(29)
	p.Templates = 200
	p.DuplicateJobRate = 0.5
	w := Generate(p)
	maxCopies := 0
	for _, tpl := range w.Templates {
		if tpl.Copies > maxCopies {
			maxCopies = tpl.Copies
		}
	}
	// With a heavy duplicate rate, the §8 "redundant jobs" tail appears:
	// some template is scheduled many times per instance.
	if maxCopies < 6 {
		t.Errorf("max copies = %d, want a heavy-tailed duplicate", maxCopies)
	}
}

func TestRangeExchangesAppear(t *testing.T) {
	p := smallProfile(31)
	p.Templates = 120
	w := Generate(p)
	ranges := 0
	for _, tpl := range w.Templates {
		plan.Walk(w.Instantiate(tpl, 0), func(n *plan.Node) {
			if n.Kind == plan.OpExchange && n.Part.Kind == plan.PartRange {
				ranges++
			}
		})
	}
	if ranges == 0 {
		t.Error("no range exchanges generated (parallel sorts missing)")
	}
}

func TestBUFactorSpreadsSharing(t *testing.T) {
	p := DefaultProfile("spread", 37)
	p.Templates = 200
	w := Generate(p)
	// Higher-index BUs must clone more than lower-index ones.
	clones := map[string]int{}
	totals := map[string]int{}
	for _, tpl := range w.Templates {
		totals[tpl.BU]++
		if tpl.ParentID != "" {
			clones[tpl.BU]++
		}
	}
	lowRate := float64(clones["bu0"]) / float64(totals["bu0"])
	highRate := float64(clones["bu3"]) / float64(totals["bu3"])
	if highRate <= lowRate {
		t.Errorf("bu3 clone rate %.2f should exceed bu0's %.2f", highRate, lowRate)
	}
}

func TestSideBranchesStayOnOwnInput(t *testing.T) {
	p := smallProfile(41)
	p.MaxSideBranches = 2
	w := Generate(p)
	for _, tpl := range w.Templates {
		inputs := plan.Inputs(w.Instantiate(tpl, 0))
		for _, in := range inputs {
			if in != tpl.Input && !strings.HasSuffix(in, "_dim") {
				t.Fatalf("template %s reads foreign stream %s (side-branch leak)", tpl.ID, in)
			}
		}
	}
}
