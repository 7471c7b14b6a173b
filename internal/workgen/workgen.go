// Package workgen generates recurring, overlapping analytics workloads
// that statistically resemble the production SCOPE workloads of paper §2:
// clusters of virtual clusters (VCs) grouped into business units, users
// submitting recurring job templates, and — crucially — computation
// overlap arising from the two mechanisms the paper identifies:
//
//  1. script cloning: users start from someone else's script and extend it
//     (a template shares a plan *prefix* with its parent), and
//  2. producer/consumer pipelines: many consumers apply the same
//     post-processing to the same cooked inputs.
//
// Templates are lists of deterministic "steps", so a cloned prefix
// instantiates to an identical subplan — identical signatures — across
// templates and recurring instances. Popularity of clone parents is
// Zipf-skewed, reproducing the heavy-tailed overlap frequencies of
// Figure 5(a).
package workgen

import (
	"fmt"
	"math/rand"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// Profile configures one generated cluster.
type Profile struct {
	Name string
	// Seed makes the whole cluster deterministic.
	Seed int64
	// BusinessUnits and VCsPerBU shape the tenant hierarchy.
	BusinessUnits int
	VCsPerBU      int
	// Users across the cluster.
	Users int
	// Templates is the number of recurring script templates.
	Templates int
	// CloneRate is the probability that a new template clones an existing
	// template's prefix (the overlap knob; cluster3 in Figure 1 is low).
	CloneRate float64
	// ZipfS (>1) skews clone-parent popularity.
	ZipfS float64
	// InputsPerBU is how many cooked input streams each BU produces.
	InputsPerBU int
	// UniqueInputRate is the probability that a fresh (non-cloned)
	// template reads its own private input stream instead of a shared BU
	// stream. High values reduce cross-job overlap (cluster3 of Figure 1).
	UniqueInputRate float64
	// RowsPerInput is the per-instance batch size of each input.
	RowsPerInput int
	// DuplicateJobRate is the probability a template is submitted more
	// than once per instance (the "redundant jobs" of §8).
	DuplicateJobRate float64
	// MaxExtraSteps bounds how many operators a template appends beyond
	// its (possibly cloned) prefix.
	MaxExtraSteps int
	// KeyDomain is the cardinality of join/group keys. Wide domains keep
	// aggregation outputs large, so downstream operators stay expensive
	// and shared prefixes are a modest fraction of job cost (Figure 5d).
	KeyDomain int64
	// MaxSideBranches bounds the per-template unshared side branches
	// (each template draws 0..MaxSideBranches of them).
	MaxSideBranches int
}

// DefaultProfile returns a mid-sized cluster with substantial overlap.
func DefaultProfile(name string, seed int64) Profile {
	return Profile{
		Name:             name,
		Seed:             seed,
		BusinessUnits:    4,
		VCsPerBU:         5,
		Users:            30,
		Templates:        120,
		CloneRate:        0.6,
		ZipfS:            1.5,
		InputsPerBU:      3,
		UniqueInputRate:  0.45,
		RowsPerInput:     400,
		DuplicateJobRate: 0.05,
		MaxExtraSteps:    3,
		KeyDomain:        512,
		MaxSideBranches:  2,
	}
}

// stepKind enumerates template pipeline steps.
type stepKind int

const (
	stepFilterParam stepKind = iota // day == @day (recurring delta)
	stepFilterConst
	stepShuffle
	stepAgg
	stepProject
	stepSort
	stepProcess
	stepJoinDim
	stepTop
)

// step is one deterministic pipeline operation. Steps are pure data so a
// cloned prefix always instantiates to an identical subplan.
type step struct {
	kind stepKind
	// Parameters, interpreted per kind.
	a, b  int
	f     float64
	name  string
	count int
}

// Template is one recurring script.
type Template struct {
	ID     string
	BU     string
	VC     string
	User   string
	Period int64
	// Input is the primary cooked stream; Dim the joined dimension (if any).
	Input string
	// steps is the pipeline; a cloned template shares a prefix with its
	// parent (SharedPrefix steps).
	steps        []step
	SharedPrefix int
	ParentID     string
	// sides are the template's own side branches: independent pipelines
	// joined into the main one. Jobs are DAGs, not chains, and the
	// unshared branches are what keep a shared prefix a small fraction
	// of total job cost (Figure 5d).
	sides []sideBranch
	// Copies is how many times the template runs per instance.
	Copies int
}

// sideBranch is a fixed-shape scan→filter→shuffle→aggregate pipeline with
// template-specific constants, joined into the main pipeline on the key.
type sideBranch struct {
	input string
	f     float64
	parts int
}

// Workload is a generated cluster: catalog plus templates.
type Workload struct {
	Profile   Profile
	Catalog   *catalog.Catalog
	Templates []*Template
	inputs    []string
	dims      []string
	rng       *rand.Rand
}

// inputSchema is the shape of every cooked input stream.
func inputSchema() data.Schema {
	return data.Schema{
		{Name: "key", Kind: data.KindInt},
		{Name: "cat", Kind: data.KindString},
		{Name: "day", Kind: data.KindDate},
		{Name: "val", Kind: data.KindFloat},
		{Name: "cnt", Kind: data.KindInt},
	}
}

func dimSchema() data.Schema {
	return data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "label", Kind: data.KindString},
	}
}

// Generate builds the cluster: inputs registered in a fresh catalog (with
// instance 0 delivered) and all templates.
func Generate(p Profile) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	w := &Workload{Profile: p, Catalog: catalog.New(), rng: rng}

	// Producer tables: per-BU cooked streams plus one dimension each.
	for b := 0; b < p.BusinessUnits; b++ {
		bu := fmt.Sprintf("bu%d", b)
		for i := 0; i < p.InputsPerBU; i++ {
			w.inputs = append(w.inputs, fmt.Sprintf("%s_stream%d", bu, i))
		}
		w.dims = append(w.dims, fmt.Sprintf("%s_dim", bu))
	}
	for _, in := range w.inputs {
		w.Catalog.Register(data.NewTable(in, "pending", inputSchema(), 4))
	}
	keyDomain := p.KeyDomain
	if keyDomain < 1 {
		keyDomain = 64
	}
	for _, d := range w.dims {
		t := data.NewTable(d, "dim-v1", dimSchema(), 2)
		rr := 0
		for i := int64(0); i < keyDomain; i++ {
			t.AppendHash(data.Row{data.Int(i), data.String_(fmt.Sprintf("%s_%d", d, i%8))}, []int{0}, &rr)
		}
		w.Catalog.Register(t)
	}

	// Templates with Zipf-skewed cloning. Fresh templates may register
	// private input streams, so instance 0 is delivered afterwards.
	for i := 0; i < p.Templates; i++ {
		bu := i % p.BusinessUnits
		tpl := &Template{
			ID:     fmt.Sprintf("%s-tpl%03d", p.Name, i),
			BU:     fmt.Sprintf("bu%d", bu),
			VC:     fmt.Sprintf("bu%d_vc%d", bu, rng.Intn(p.VCsPerBU)),
			User:   fmt.Sprintf("user%02d", rng.Intn(max(1, p.Users))),
			Period: pickPeriod(rng),
			Copies: 1,
		}
		if rng.Float64() < p.DuplicateJobRate {
			// Most duplicated templates run 2–3 times per instance, but a
			// minority are scheduled far more often than new data arrives
			// (§8 "Discarding redundant jobs") — the heavy tail behind the
			// paper's within-VC overlap frequencies reaching 100+.
			if rng.Intn(5) == 0 {
				tpl.Copies = 6 + rng.Intn(14)
			} else {
				tpl.Copies = 2 + rng.Intn(2)
			}
		}
		// Clone propensity varies by business unit: some BUs are tight
		// producer/consumer pipelines full of derived scripts, others
		// mostly bespoke work. This is what makes per-VC overlap span
		// the 0–100% range of Figure 2(a).
		cloneRate := p.CloneRate * w.buFactor(bu)
		if cloneRate > 0.95 {
			cloneRate = 0.95
		}
		if len(w.Templates) > 0 && rng.Float64() < cloneRate {
			// Zipf over the templates created so far: early templates are
			// cloned most, producing the heavy-tailed overlap skew.
			zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(len(w.Templates)-1))
			parent := w.Templates[int(zipf.Uint64())]
			w.cloneExtend(tpl, parent)
		} else {
			w.fresh(tpl, bu)
		}
		// Template-specific side branches over the template's own input:
		// a second look at the same data joined back in. Keeping the
		// branch on the template's input (rather than a shared stream)
		// means side branches never leak overlap into otherwise-disjoint
		// VCs.
		sideCount := 0
		if p.MaxSideBranches > 0 {
			sideCount = rng.Intn(p.MaxSideBranches + 1)
		}
		for s := 0; s < sideCount; s++ {
			tpl.sides = append(tpl.sides, sideBranch{
				input: tpl.Input,
				f:     float64(rng.Intn(900) + 50),
				parts: 4 << rng.Intn(3),
			})
		}
		w.Templates = append(w.Templates, tpl)
	}
	w.DeliverInstance(0)
	return w
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func pickPeriod(rng *rand.Rand) int64 {
	switch rng.Intn(10) {
	case 0:
		return 7 // weekly
	case 1:
		return 30 // monthly
	default:
		return 1 // hourly/daily
	}
}

// buFactor scales a business unit's propensity to share: low-index BUs
// are bespoke shops, high-index BUs are tight producer/consumer pipelines.
func (w *Workload) buFactor(bu int) float64 {
	return 0.3 + 1.4*float64(bu)/float64(max(1, w.Profile.BusinessUnits-1))
}

// fresh creates a template from scratch, over either a shared BU stream or
// a private stream of its own (no cross-job overlap possible on the latter
// except through cloning). Bespoke BUs (low buFactor) lean hard toward
// private inputs, which is what produces zero-overlap VCs (Figure 2a).
func (w *Workload) fresh(tpl *Template, bu int) {
	p := w.Profile
	uniq := 1 - (1-p.UniqueInputRate)*w.buFactor(bu)
	if uniq < 0.05 {
		uniq = 0.05
	}
	if uniq > 0.98 {
		uniq = 0.98
	}
	if w.rng.Float64() < uniq {
		name := fmt.Sprintf("%s_%s_priv%d", tpl.BU, tpl.User, len(w.inputs))
		w.Catalog.Register(data.NewTable(name, "pending", inputSchema(), 4))
		w.inputs = append(w.inputs, name)
		tpl.Input = name
	} else {
		tpl.Input = w.inputs[bu*p.InputsPerBU+w.rng.Intn(p.InputsPerBU)]
	}
	// Every recurring template starts with the same data preparation:
	// select the instance's batch, then repartition on the key. The
	// canonical leading shuffle is why so many production overlaps are
	// rooted at exchange operators (§2.3): independent templates over the
	// same stream share scan+filter+shuffle verbatim.
	tpl.steps = []step{{kind: stepFilterParam}, {kind: stepShuffle, count: 16}}
	w.appendRandomSteps(tpl, 1+w.rng.Intn(max(1, p.MaxExtraSteps)))
}

// cloneExtend copies the parent's prefix and appends new steps — the
// "start from someone else's script" mechanism.
func (w *Workload) cloneExtend(tpl *Template, parent *Template) {
	tpl.Input = parent.Input
	tpl.ParentID = parent.ID
	// The shared prefix is capped: users copy the data-preparation head
	// of a script (scan, recurring filter, a shuffle or sort), then add
	// their own substantial analysis. That keeps shared computations a
	// modest fraction of job cost (Figure 5d) while still rooting many
	// overlaps at shuffle/sort boundaries (§2.3). A third of the clones
	// copy the longest allowed prefix.
	maxPrefix := len(parent.steps)
	if maxPrefix > 5 {
		maxPrefix = 5
	}
	prefix := 1 + w.rng.Intn(maxPrefix)
	if w.rng.Intn(3) == 0 {
		prefix = maxPrefix
	}
	tpl.steps = append([]step(nil), parent.steps[:prefix]...)
	tpl.SharedPrefix = prefix
	w.appendRandomSteps(tpl, 2+w.rng.Intn(max(1, w.Profile.MaxExtraSteps)))
}

// appendRandomSteps extends the pipeline with schema-safe random steps.
// Shuffles and sorts are weighted high: overlaps concentrate at shuffle
// boundaries in production (paper §2.3), and pipelines repartition often.
func (w *Workload) appendRandomSteps(tpl *Template, n int) {
	rng := w.rng
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 22: // shuffle (1 in 4 is a range exchange / parallel sort)
			tpl.steps = append(tpl.steps, step{kind: stepShuffle, count: 4 << rng.Intn(3), a: boolToInt(rng.Intn(4) == 0)})
		case r < 38: // sort
			tpl.steps = append(tpl.steps, step{kind: stepSort, a: rng.Intn(2)})
		case r < 50: // filter
			tpl.steps = append(tpl.steps, step{kind: stepFilterConst, f: float64(rng.Intn(800))})
		case r < 62: // group-by aggregate
			tpl.steps = append(tpl.steps, step{kind: stepAgg, a: rng.Intn(2)})
		case r < 70: // column remap
			tpl.steps = append(tpl.steps, step{kind: stepProject})
		case r < 80:
			// Shared UDO library: few distinct names cluster-wide, so
			// user code overlaps across teams (Figure 4d).
			tpl.steps = append(tpl.steps, step{kind: stepProcess,
				name: fmt.Sprintf("udolib%d", rng.Intn(4))})
		case r < 90:
			tpl.steps = append(tpl.steps, step{kind: stepJoinDim, name: tpl.BU + "_dim"})
		default:
			tpl.steps = append(tpl.steps, step{kind: stepTop, count: 10 + rng.Intn(90)})
		}
	}
}

// DeliverInstance installs instance i's data batch for every input stream.
func (w *Workload) DeliverInstance(i int64) {
	day := int64(17000 + i)
	keyDomain := w.Profile.KeyDomain
	if keyDomain < 1 {
		keyDomain = 64
	}
	for idx, in := range w.inputs {
		guid := fmt.Sprintf("%s-v%d", in, i)
		fill := func(t *data.Table) {
			g := data.NewGenerator(w.Profile.Seed ^ (int64(idx) << 16) ^ i)
			rr := 0
			for r := 0; r < w.Profile.RowsPerInput; r++ {
				t.AppendHash(data.Row{
					data.Int(g.Rand().Int63n(keyDomain)),
					data.String_(fmt.Sprintf("cat%d", g.Rand().Int63n(12))),
					data.Date(day),
					data.Float(float64(g.Rand().Int63n(1000))),
					data.Int(g.Rand().Int63n(10)),
				}, []int{0}, &rr)
			}
		}
		if err := w.Catalog.Deliver(in, guid, fill); err != nil {
			// First delivery happens before any reads; Register path
			// guarantees the table exists, so this is unreachable.
			panic(err)
		}
	}
}

// Job is one submittable job instance.
type Job struct {
	Meta workload.JobMeta
	Root *plan.Node
}

// JobsForInstance instantiates every template for recurring instance i, in
// submission order (template order with duplicates appended).
func (w *Workload) JobsForInstance(i int64) []Job {
	var jobs []Job
	order := 0
	for _, tpl := range w.Templates {
		if i%tpl.Period != 0 {
			continue // not due this instance
		}
		for c := 0; c < tpl.Copies; c++ {
			jobID := fmt.Sprintf("%s-i%d", tpl.ID, i)
			if c > 0 {
				jobID = fmt.Sprintf("%s-dup%d", jobID, c)
			}
			jobs = append(jobs, Job{
				Meta: workload.JobMeta{
					JobID:        jobID,
					Cluster:      w.Profile.Name,
					BusinessUnit: tpl.BU,
					VC:           tpl.VC,
					User:         tpl.User,
					TemplateID:   tpl.ID,
					Instance:     i,
					Period:       tpl.Period,
					SubmitOrder:  order,
				},
				Root: w.Instantiate(tpl, i),
			})
			order++
		}
	}
	return jobs
}

// Instantiate builds the template's plan for recurring instance i: the
// main pipeline (whose prefix may be shared with other templates) with the
// template's own side branches joined in at the end.
func (w *Workload) Instantiate(tpl *Template, i int64) *plan.Node {
	day := int64(17000 + i)
	guid := w.Catalog.GUID(tpl.Input)
	n := plan.Scan(tpl.Input, guid, inputSchema())
	for _, s := range tpl.steps {
		n = applyStep(w.Catalog, n, s, day)
	}
	for _, sb := range tpl.sides {
		n = w.joinSideBranch(n, sb)
	}
	return n.Output(tpl.ID)
}

// joinSideBranch builds the branch pipeline and joins it into main on the
// key columns; if main has no integer column left the branch is skipped.
func (w *Workload) joinSideBranch(main *plan.Node, sb sideBranch) *plan.Node {
	intCol, _, _ := colsByKind(main.Schema())
	if intCol < 0 {
		return main
	}
	branch := plan.Scan(sb.input, w.Catalog.GUID(sb.input), inputSchema()).
		Filter(expr.B(expr.OpLt, expr.C(3, "val"), expr.Lit(data.Float(sb.f)))).
		ShuffleHash([]int{0}, sb.parts).
		HashAgg([]int{0}, []plan.AggSpec{
			{Fn: plan.AggCount, Col: 1},
			{Fn: plan.AggSum, Col: 3},
		})
	return main.HashJoin(branch, []int{intCol}, []int{0})
}

// applyStep interprets one step against the current plan node, keeping the
// pipeline schema-safe by inspecting the node's derived schema.
func applyStep(cat *catalog.Catalog, n *plan.Node, s step, day int64) *plan.Node {
	sch := n.Schema()
	intCol, floatCol, dateCol := colsByKind(sch)
	switch s.kind {
	case stepFilterParam:
		if dateCol < 0 {
			return n
		}
		return n.Filter(expr.Eq(expr.C(dateCol, sch[dateCol].Name), expr.P("day", data.Date(day))))
	case stepFilterConst:
		if floatCol >= 0 {
			return n.Filter(expr.B(expr.OpLt, expr.C(floatCol, sch[floatCol].Name), expr.Lit(data.Float(s.f))))
		}
		if intCol >= 0 {
			return n.Filter(expr.B(expr.OpGe, expr.C(intCol, sch[intCol].Name), expr.Lit(data.Int(int64(s.f)/100))))
		}
		return n
	case stepShuffle:
		if intCol < 0 {
			return n
		}
		if s.a == 1 {
			return n.RangePartition([]int{intCol}, s.count)
		}
		return n.ShuffleHash([]int{intCol}, s.count)
	case stepAgg:
		if intCol < 0 {
			return n
		}
		aggs := []plan.AggSpec{{Fn: plan.AggCount, Col: intCol}}
		if floatCol >= 0 {
			aggs = append(aggs, plan.AggSpec{Fn: plan.AggSum, Col: floatCol})
			if s.a == 1 {
				aggs = append(aggs, plan.AggSpec{Fn: plan.AggMax, Col: floatCol})
			}
		}
		return n.HashAgg([]int{intCol}, aggs)
	case stepProject:
		cols := make([]int, 0, len(sch))
		for i := range sch {
			if i != 1 || len(sch) <= 2 { // drop one column when possible
				cols = append(cols, i)
			}
		}
		return n.ProjectCols(cols...)
	case stepSort:
		col := intCol
		if s.a == 1 && floatCol >= 0 {
			col = floatCol
		}
		if col < 0 {
			col = 0
		}
		return n.Sort([]int{col}, []bool{true})
	case stepProcess:
		return n.Process(s.name, s.name+"-code-v1")
	case stepJoinDim:
		if intCol < 0 {
			return n
		}
		dim, err := cat.Get(s.name)
		if err != nil {
			return n
		}
		return n.HashJoin(plan.Scan(s.name, dim.GUID, dim.Schema), []int{intCol}, []int{0})
	case stepTop:
		return n.Top(int64(s.count))
	default:
		return n
	}
}

// colsByKind returns the first int, float, and date column indexes (-1 if
// absent).
func colsByKind(sch data.Schema) (intCol, floatCol, dateCol int) {
	intCol, floatCol, dateCol = -1, -1, -1
	for i, c := range sch {
		switch c.Kind {
		case data.KindInt:
			if intCol < 0 {
				intCol = i
			}
		case data.KindFloat:
			if floatCol < 0 {
				floatCol = i
			}
		case data.KindDate:
			if dateCol < 0 {
				dateCol = i
			}
		}
	}
	return
}
