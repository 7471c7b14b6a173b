package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// The paper measures reuse with one protocol (§7.1, §7.2): record a
// history with reuse off, mine it, then run the next jobs with reuse off
// and with reuse on. Every §7 harness and ablation is built from the
// pieces below, and every job goes through core.Service.Run, serially.

// history is the protocol's recorded half: a generated workload wl whose
// instance 0 ran with reuse off into repo, and whose instance 1 is
// delivered and waiting in jobs.
type history struct {
	wl   *workgen.Workload
	cat  *catalog.Catalog
	repo *workload.Repository
	jobs []core.JobSpec
}

func recordHistory(p workgen.Profile) (*history, error) {
	w := workgen.Generate(p)
	repo, err := RunWorkload(w, 0)
	if err != nil {
		return nil, err
	}
	w.DeliverInstance(1)
	return &history{wl: w, cat: w.Catalog, repo: repo, jobs: specsOf(w.JobsForInstance(1))}, nil
}

func specsOf(jobs []workgen.Job) []core.JobSpec {
	specs := make([]core.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = core.JobSpec{Meta: j.Meta, Root: j.Root}
	}
	return specs
}

// analyze mines repo and fails when nothing is selected: every harness
// measures the reuse of at least one view.
func analyze(repo *workload.Repository, cfg analyzer.Config) (*analyzer.Analysis, error) {
	an := analyzer.New(repo).Analyze(cfg)
	if len(an.Selected) == 0 {
		return nil, errors.New("bench: analyzer selected no views")
	}
	return an, nil
}

// runAll submits specs through svc.Run one at a time, in order, so which
// job builds each view is fixed by the order, never by a race.
func runAll(svc *core.Service, specs []core.JobSpec) ([]*core.JobResult, error) {
	out := make([]*core.JobResult, len(specs))
	for i, spec := range specs {
		r, err := svc.Run(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("bench: job %s: %w", spec.Meta.JobID, err)
		}
		out[i] = r
	}
	return out, nil
}

func totalCPU(rs []*core.JobResult) float64 {
	var cpu float64
	for _, r := range rs {
		cpu += r.Result.TotalCPU
	}
	return cpu
}

// reuseService returns a service with reuse on under cfg and the
// analysis's annotations loaded.
func reuseService(cat *catalog.Catalog, cfg core.Config, anns []metadata.Annotation) *core.Service {
	cfg.Enabled = true
	svc := core.NewService(cat, cfg)
	svc.Meta.LoadAnalysis(anns)
	return svc
}

// pick is one job relevant to a selected view; group indexes the view.
type pick struct {
	spec  core.JobSpec
	group int
}

// pickRelevant returns, view by view, the jobs whose plan contains a
// selected computation, so each view's jobs run consecutively (the paper
// ran each view's jobs as a sequence). A job joins its first view's group
// only; view g takes at most caps[g] jobs (no cap past the list or at 0),
// and all groups together at most maxJobs (0 for no limit).
func pickRelevant(jobs []core.JobSpec, selected []analyzer.Candidate, caps []int, maxJobs int) []pick {
	var picks []pick
	seen := map[string]bool{}
	comp := signature.NewComputer()
	for g, c := range selected {
		n := 0
		for _, j := range jobs {
			if seen[j.Meta.JobID] || !planContainsNorm(comp, j.Root, c.NormSig) {
				continue
			}
			picks = append(picks, pick{spec: j, group: g})
			seen[j.Meta.JobID] = true
			n++
			if maxJobs > 0 && len(picks) == maxJobs {
				return picks
			}
			if g < len(caps) && caps[g] > 0 && n == caps[g] {
				break
			}
		}
	}
	return picks
}

func planContainsNorm(comp *signature.Computer, root *plan.Node, normSig string) bool {
	for _, s := range comp.AllSubgraphs(root) {
		if s.Sig.Normalized == normSig {
			return true
		}
	}
	return false
}

// buildersFirst returns specs with the analyzer's builder jobs first, in
// hint order (§6.5), and every other job after them in its given order.
// The hints name history job IDs, so they match by template: a recurring
// job ID is its template ID plus an instance suffix after the last '-'
// (a duplicate copy's ID, ending "-dupN", names no template), and a
// TPC-DS query's ID is its template ID.
func buildersFirst(specs []core.JobSpec, hints []string) []core.JobSpec {
	rank := map[string]int{}
	for i, h := range hints {
		if cut := strings.LastIndexByte(h, '-'); cut >= 0 {
			h = h[:cut]
		}
		rank[h] = i + 1
	}
	key := func(s core.JobSpec) int {
		if r, ok := rank[s.Meta.TemplateID]; ok {
			return r
		}
		return len(hints) + 1
	}
	out := slices.Clone(specs)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}
