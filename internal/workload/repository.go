// Package workload implements the SCOPE workload repository and the
// feedback loop of paper §5.1: it joins compile-time query plans with the
// run-time statistics observed during execution, producing per-subgraph
// observations keyed by precise and normalized signature.
//
// The analyzer mines these observations to pick views; because every
// candidate has actually executed, its utility (runtime saved) and cost
// (bytes stored) are measured rather than estimated — the paper's answer
// to optimizer estimates being "often way off".
package workload

import (
	"maps"
	"slices"
	"sync"

	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// JobMeta describes one submitted job: identity, placement, and recurrence.
type JobMeta struct {
	JobID        string
	Cluster      string
	BusinessUnit string
	VC           string
	User         string
	// TemplateID names the recurring script template the job instantiates;
	// jobs from the same template share it across instances.
	TemplateID string
	// Instance is the recurring instance index (simulated time unit).
	Instance int64
	// Period is the template's recurrence period in instance units
	// (1 = every instance, 7 = weekly for daily instances, …). It drives
	// view-expiry lineage (§5.4).
	Period int64
	// SubmitOrder is the arrival position within the instance.
	SubmitOrder int
}

// Observation is one subgraph occurrence reconciled with its runtime
// statistics — the unit the feedback loop produces.
type Observation struct {
	Job        JobMeta
	PreciseSig string
	NormSig    string
	RootOp     plan.OpKind
	// Runtime statistics from the execution of this subgraph.
	Rows           int64
	Bytes          int64
	ExclusiveCost  float64
	CumulativeCost float64
	Latency        float64
	// JobCPU and JobLatency are the enclosing job's totals, for
	// view-to-query cost ratios (paper Figure 5d).
	JobCPU     float64
	JobLatency float64
	// Inputs are the logical tables the subgraph reads.
	Inputs []string
	// Props is the subgraph's derived output physical design (§5.3).
	Props plan.PhysicalProps
	// Ops is the operator count of the subgraph (view "size" in plan terms).
	Ops int
}

// Repository accumulates the subgraph observations of executed jobs. Plans
// are joined with their runtime statistics at Record and then dropped: the
// repository keeps the observations, the runs that index them by instance,
// and, folded in as they land, the statistics the analyzer mines from them
// (see Fold). It is safe for concurrent use.
type Repository struct {
	mu   sync.RWMutex
	obs  []Observation
	runs []Run
	fold Fold
}

// Run is a maximal stretch of consecutively recorded observations of one
// instance: obs[Lo:Hi] all have Job.Instance == Instance. The runs tile the
// log in record order, so instances that interleave split into several.
type Run struct {
	Instance int64
	Lo, Hi   int
}

// Fold is a record-order fold of observations. The repository keeps one
// over every observation recorded so far — what a whole-history analysis
// needs, kept current as observations land instead of re-derived from the
// log — and the analyzer folds a window's observations into its own.
type Fold struct {
	// Sigs holds each normalized signature's running statistics; job
	// indices in them refer to Jobs.
	Sigs SigFolds
	Jobs JobIndex
	// Periods is each input's longest consumer period (§5.4 lineage).
	Periods map[string]int64
	// Observations counts the observations folded. In the repository's
	// fold MinInstance and MaxInstance bound their Job.Instance (both zero
	// while empty).
	Observations             int
	MinInstance, MaxInstance int64
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{fold: Fold{Periods: map[string]int64{}}}
}

// Record reconciles the compiled plan of a finished job with the runtime
// statistics of its execution, appending one observation per distinct
// non-transparent subgraph. This is the feedback-loop join: the executed
// data flow is linked back to the query tree node by node (§5.1). The
// repository keeps no reference to root or res.
func (r *Repository) Record(meta JobMeta, root *plan.Node, res *exec.Result) {
	subs := signature.NewComputer().AllSubgraphs(root)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range subs {
		st, ok := res.NodeStats[s.Node]
		if !ok {
			// Node did not execute (should not happen for a completed
			// job); skip rather than fabricate statistics.
			continue
		}
		r.add(Observation{
			Job:            meta,
			PreciseSig:     s.Sig.Precise,
			NormSig:        s.Sig.Normalized,
			RootOp:         s.Node.Kind,
			Rows:           st.Rows,
			Bytes:          st.Bytes,
			ExclusiveCost:  st.ExclusiveCost,
			CumulativeCost: st.CumulativeCost,
			Latency:        st.Latency,
			JobCPU:         res.TotalCPU,
			JobLatency:     res.Latency,
			Inputs:         plan.Inputs(s.Node),
			Props:          plan.DeriveProps(s.Node),
			Ops:            plan.Count(s.Node),
		})
	}
}

// Append ingests already-reconciled observations directly — the offline
// log-ingestion path: production workload repositories are populated from
// cluster telemetry as well as live Record calls, and the analyzer's
// large-workload tests and benchmarks build repositories the same way.
func (r *Repository) Append(obs ...Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = slices.Grow(r.obs, len(obs))
	for _, o := range obs {
		r.add(o)
	}
}

// add appends o, extends the last run or starts a new one, and folds o
// into the repository's Fold: its signature's running statistics, its
// job's index entry, its job's period into each of its inputs' longest
// consumer period, and the instance bounds. The caller holds r.mu for
// writing.
func (r *Repository) add(o Observation) {
	r.obs = append(r.obs, o)
	f := &r.fold
	i := len(r.obs) - 1
	p := &r.obs[i]
	if n := len(r.runs); n > 0 && r.runs[n-1].Instance == p.Job.Instance {
		r.runs[n-1].Hi++
	} else {
		r.runs = append(r.runs, Run{Instance: p.Job.Instance, Lo: i, Hi: i + 1})
	}
	f.Sigs.Add(r.obs, i, f.Jobs.Add(p))
	for _, in := range p.Inputs {
		if p.Job.Period > f.Periods[in] {
			f.Periods[in] = p.Job.Period
		}
	}
	if f.Observations == 0 || p.Job.Instance < f.MinInstance {
		f.MinInstance = p.Job.Instance
	}
	if f.Observations == 0 || p.Job.Instance > f.MaxInstance {
		f.MaxInstance = p.Job.Instance
	}
	f.Observations++
}

// Snapshot returns a zero-copy view of every observation recorded so far.
//
// Aliasing contract: the returned slice aliases repository-internal
// storage. Recorded observations are immutable — writers only ever append —
// so the snapshot is a stable, internally consistent generation that stays
// valid while Record keeps running; callers must treat it as read-only.
// This is what lets the analyzer run several passes over one consistent
// generation without copying hundreds of thousands of observations first.
func (r *Repository) Snapshot() []Observation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.obs
}

// WindowRuns returns the Snapshot and, in record order, the runs whose
// instance lies in [from, to], both from one generation: obs[run.Lo:run.Hi]
// over the returned runs visits exactly the window's observations in
// record order. The runs are a copy.
func (r *Repository) WindowRuns(from, to int64) ([]Observation, []Run) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var runs []Run
	for _, run := range r.runs {
		if run.Instance >= from && run.Instance <= to {
			runs = append(runs, run)
		}
	}
	return r.obs, runs
}

// Window returns a copy of the observations of jobs whose instance index
// lies in [from, to] — the analyzer's time-window filter.
func (r *Repository) Window(from, to int64) []Observation {
	var out []Observation
	for _, o := range r.Snapshot() {
		if o.Job.Instance >= from && o.Job.Instance <= to {
			out = append(out, o)
		}
	}
	return out
}

// NumJobs returns the number of distinct job IDs observed.
func (r *Repository) NumJobs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fold.Jobs.IDs)
}

// InputPeriods returns, per logical input, the longest recurrence period
// of any template reading it. The view-expiry heuristic of §5.4 uses this
// lineage: a view over an input also consumed by weekly jobs must outlive
// the week. The map is a copy; add keeps the live one current.
func (r *Repository) InputPeriods() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return maps.Clone(r.fold.Periods)
}

// ReadFold calls fn with the live Fold under the read lock, so everything
// fn reads comes from one generation. fn must copy out whatever it keeps,
// must not modify the fold, and must neither block nor call back into the
// repository: writers wait until it returns.
func (r *Repository) ReadFold(fn func(f *Fold)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn(&r.fold)
}
