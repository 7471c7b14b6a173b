// Package analyzer implements the CloudViews analyzer of paper §5: it
// mines the workload repository for overlapping computations, selects the
// views to materialize under pluggable heuristics and constraints, elects
// each view's physical design, derives its expiry from input lineage, and
// emits the annotations the metadata service serves to future jobs — plus
// the job-coordination submission order of §6.5.
package analyzer

import (
	"sort"

	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// Strategy selects among the view-selection methods of §5.2.
type Strategy int

// Selection strategies.
const (
	// TopKUtility picks the k candidates with the highest total utility
	// (frequency × average runtime saved).
	TopKUtility Strategy = iota
	// TopKUtilityPerByte normalizes utility by storage cost.
	TopKUtilityPerByte
	// PackStorageBudget greedily packs candidates by utility density
	// under a total storage budget (the practical stand-in for the
	// companion subexpression-packing work).
	PackStorageBudget
	// PackStorageBudgetOptimal solves the same packing problem exactly
	// with branch-and-bound — total utility is maximized, never below the
	// greedy solution.
	PackStorageBudgetOptimal
)

// Config tunes one analyzer run — the §5.5 admin knobs.
type Config struct {
	// WindowFrom/WindowTo restrict analysis to recurring instances in the
	// inclusive range. Zero values with WindowTo==0 mean "everything".
	WindowFrom, WindowTo int64
	// Clusters/BusinessUnits/VCs filter the workload; empty means all.
	Clusters      []string
	BusinessUnits []string
	VCs           []string
	// MinFrequency is the minimum occurrence count (paper's production
	// run used "appearing at least thrice").
	MinFrequency int
	// MinCostRatio prunes candidates whose subgraph cost is below this
	// fraction of their job's cost ("at least 20% of the overall job
	// cost" in §7.1).
	MinCostRatio float64
	// MinRuntime prunes trivially cheap subgraphs (26% of overlaps run
	// ≤1s, §2.4).
	MinRuntime float64
	// MaxPerJob, when 1, keeps at most one candidate per job (§7.1).
	MaxPerJob int
	// TopK bounds the number of selected views (0 = unlimited).
	TopK int
	// Strategy picks the selection method.
	Strategy Strategy
	// StorageBudget bounds total view bytes for PackStorageBudget.
	StorageBudget int64
}

// Candidate is one overlapping computation with its mined statistics.
type Candidate struct {
	NormSig string
	// Frequency is the number of occurrences in the window; JobCount the
	// number of distinct jobs; UserCount distinct users.
	Frequency int
	JobCount  int
	UserCount int
	// Measured averages from the feedback loop.
	AvgCost    float64 // average cumulative subgraph cost
	AvgLatency float64
	AvgRows    float64
	AvgBytes   float64
	// CostRatio is the average view-to-query cost ratio (Figure 5d).
	CostRatio float64
	// ReadCost is the measured cost of scanning the materialized view
	// (from its observed output size).
	ReadCost float64
	// Utility is the estimated total *net* saving:
	// (Frequency-1) × max(0, AvgCost − ReadCost) — every occurrence after
	// the first reads the view instead of recomputing, and reading is not
	// free. Ranking by net saving is what keeps scan-shaped subgraphs
	// (output ≈ input) from crowding out expensive reductions.
	Utility float64
	// Props is the elected physical design; MultiDesign reports that the
	// occurrences disagreed on the design (§5.3).
	Props       plan.PhysicalProps
	MultiDesign bool
	// ExpiryDelta is the lifetime in instance units from input lineage.
	ExpiryDelta int64
	// Tags are the inverted-index keys (inputs and template IDs).
	Tags []string
	// RootOp is the operator at the subgraph root (Figure 4a).
	RootOp plan.OpKind
	// Jobs lists the distinct job IDs containing the computation, in
	// first-occurrence (record) order. Its readers use it as a set or
	// under a total order, so it is not sorted.
	Jobs []string
	// Inputs lists the logical inputs the computation reads.
	Inputs []string
	// AvgRuntime is the mined average latency, used for build-lock TTLs.
	AvgRuntime float64
}

// Analysis is one analyzer run's full output.
type Analysis struct {
	// Window actually analyzed.
	WindowFrom, WindowTo int64
	// TotalJobs and TotalSubgraphs describe the analyzed workload.
	TotalJobs      int
	TotalSubgraphs int
	// Candidates are all overlapping computations (frequency ≥ 2),
	// before selection filters.
	Candidates []Candidate
	// Selected are the computations chosen to materialize.
	Selected []Candidate
	// Annotations is Selected rendered for the metadata service.
	Annotations []metadata.Annotation
	// JobOrder is the §6.5 coordination hint: submit these jobs first, in
	// order, so views are built once and reused by everyone else.
	JobOrder []string
}

// ObsHook is the analyzer's observability seam (see internal/obs):
// AnalyzeDone fires once per completed Analyze with the run's sizes. A
// nil hook costs nothing.
type ObsHook interface {
	AnalyzeDone(jobs, subgraphs, candidates, selected int)
}

// Analyzer mines a workload repository.
type Analyzer struct {
	Repo *workload.Repository

	// Obs, if set, observes completed runs (see ObsHook).
	Obs ObsHook
}

// New returns an analyzer over the repository.
func New(repo *workload.Repository) *Analyzer {
	return &Analyzer{Repo: repo}
}

// analysisWindow resolves the configured window; zero values with
// WindowTo==0 mean "everything".
func analysisWindow(cfg Config) (from, to int64) {
	from, to = cfg.WindowFrom, cfg.WindowTo
	if to == 0 {
		to = 1<<62 - 1
	}
	return from, to
}

// Analyze runs the full pipeline — enumerate → aggregate → filter →
// select → annotate → order. A config whose window covers every recorded
// instance, with no admin scope, reads exactly what the repository already
// folded as observations landed, so Analyze finalizes those running
// statistics without a pass over the log (analyzeFolded).
// Every other config folds exactly the window's observations, visited
// through the repository's run index on one zero-copy snapshot, into
// per-signature running statistics (analyzeSnapshot), so peak memory
// scales with the number of candidates rather than with materialized
// observation groups. Either way the output is byte-identical to the
// serial reference walk (Serial): every signature's statistics fold in
// record order through one fold body, and every ordering the pipeline
// emits is a total order (see DESIGN.md §12).
func (a *Analyzer) Analyze(cfg Config) *Analysis {
	an, ok := a.analyzeFolded(cfg)
	if !ok {
		an = a.analyzeSnapshot(cfg)
	}
	if a.Obs != nil {
		a.Obs.AnalyzeDone(an.TotalJobs, an.TotalSubgraphs, len(an.Candidates), len(an.Selected))
	}
	return an
}

// scoped reports whether any Clusters / BusinessUnits / VCs filter is set.
func (cfg *Config) scoped() bool {
	return len(cfg.Clusters) > 0 || len(cfg.BusinessUnits) > 0 || len(cfg.VCs) > 0
}

// Serial is the reference walk — the original analyzer, kept verbatim as
// the golden oracle Analyze is diffed against. It materializes the
// windowed copy, the scoped copy, and the per-signature observation
// groups that Analyze folds past.
func (a *Analyzer) Serial(cfg Config) *Analysis {
	from, to := analysisWindow(cfg)
	obs := a.Repo.Window(from, to)
	obs = filterScope(obs, cfg)

	an := &Analysis{WindowFrom: from, WindowTo: to, TotalSubgraphs: len(obs)}
	jobs := map[string]bool{}
	for _, o := range obs {
		jobs[o.Job.JobID] = true
	}
	an.TotalJobs = len(jobs)

	periods := a.Repo.InputPeriods()
	an.Candidates = aggregate(obs, periods)
	selected := selectViews(an.Candidates, cfg, false)
	an.Selected = selected
	an.Annotations = annotate(selected)
	an.JobOrder = coordinate(selected, obs)
	return an
}

// scopeMatch reports whether the observation passes the Clusters /
// BusinessUnits / VCs admin filters.
func scopeMatch(o *workload.Observation, cfg *Config) bool {
	match := func(v string, allow []string) bool {
		if len(allow) == 0 {
			return true
		}
		for _, a := range allow {
			if a == v {
				return true
			}
		}
		return false
	}
	return match(o.Job.Cluster, cfg.Clusters) &&
		match(o.Job.BusinessUnit, cfg.BusinessUnits) &&
		match(o.Job.VC, cfg.VCs)
}

func filterScope(obs []workload.Observation, cfg Config) []workload.Observation {
	if len(cfg.Clusters) == 0 && len(cfg.BusinessUnits) == 0 && len(cfg.VCs) == 0 {
		// Nothing to filter: every observation passes, so the input can be
		// returned as-is instead of copied.
		return obs
	}
	out := make([]workload.Observation, 0, len(obs))
	for i := range obs {
		if scopeMatch(&obs[i], &cfg) {
			out = append(out, obs[i])
		}
	}
	return out
}

// aggregate groups observations by normalized signature and computes the
// per-candidate statistics.
func aggregate(obs []workload.Observation, periods map[string]int64) []Candidate {
	groups := map[string][]workload.Observation{}
	for _, o := range obs {
		groups[o.NormSig] = append(groups[o.NormSig], o)
	}
	var out []Candidate
	for sig, g := range groups {
		if len(g) < 2 {
			continue // not an overlap
		}
		c := Candidate{NormSig: sig, Frequency: len(g), RootOp: g[0].RootOp}
		jobSet := map[string]bool{}
		userSet := map[string]bool{}
		inputSet := map[string]bool{}
		tagSet := map[string]bool{}
		var cost, lat, rows, bytes, ratio float64
		for _, o := range g {
			if !jobSet[o.Job.JobID] {
				jobSet[o.Job.JobID] = true
				c.Jobs = append(c.Jobs, o.Job.JobID)
			}
			userSet[o.Job.User] = true
			for _, in := range o.Inputs {
				inputSet[in] = true
				tagSet[in] = true
			}
			tagSet[o.Job.TemplateID] = true
			cost += o.CumulativeCost
			lat += o.Latency
			rows += float64(o.Rows)
			bytes += float64(o.Bytes)
			if o.JobCPU > 0 {
				ratio += o.CumulativeCost / o.JobCPU
			}
		}
		n := float64(len(g))
		c.AvgCost = cost / n
		c.AvgLatency = lat / n
		c.AvgRuntime = c.AvgLatency
		c.AvgRows = rows / n
		c.AvgBytes = bytes / n
		c.CostRatio = ratio / n
		c.ReadCost = exec.OperatorCost(plan.OpViewScan, 0, int64(c.AvgRows), int64(c.AvgBytes))
		saving := c.AvgCost - c.ReadCost
		if saving < 0 {
			saving = 0
		}
		c.Utility = float64(c.Frequency-1) * saving
		c.JobCount = len(jobSet)
		c.UserCount = len(userSet)
		c.Inputs = sortedKeys(inputSet)
		c.Tags = sortedKeys(tagSet)
		c.Props, c.MultiDesign = electDesign(g)
		c.ExpiryDelta = expiryFromLineage(c.Inputs, periods)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Utility != out[j].Utility {
			return out[i].Utility > out[j].Utility
		}
		return out[i].NormSig < out[j].NormSig
	})
	return out
}

// electDesign picks the most popular output physical design among the
// occurrences (§5.3). It reports whether multiple designs were in play.
func electDesign(g []workload.Observation) (plan.PhysicalProps, bool) {
	var t workload.DesignTally
	for _, o := range g {
		t.Add(o.Props)
	}
	return t.Elect()
}

// expiryFromLineage returns the view lifetime: the longest recurrence
// period of any template consuming any of the view's inputs, plus one
// instance of slack (§5.4).
func expiryFromLineage(inputs []string, periods map[string]int64) int64 {
	var maxP int64 = 1
	for _, in := range inputs {
		if p := periods[in]; p > maxP {
			maxP = p
		}
	}
	return maxP + 1
}

// selectViews applies the admin filters and the selection strategy. With
// bounded set, the density strategies replace their full pool sort with a
// TopK-bounded heap whenever no selection-stage skip (MaxPerJob, storage
// budget) can consume more than the k densest candidates; the serial
// reference passes bounded=false so the golden diff pins the heap against
// the full sort.
func selectViews(cands []Candidate, cfg Config, bounded bool) []Candidate {
	var pool []Candidate
	for _, c := range cands {
		if cfg.MinFrequency > 0 && c.Frequency < cfg.MinFrequency {
			continue
		}
		if c.CostRatio < cfg.MinCostRatio {
			continue
		}
		if c.AvgLatency < cfg.MinRuntime {
			continue
		}
		// Materializing a bare scan or an output sink never saves work.
		if c.RootOp == plan.OpExtract || c.RootOp == plan.OpOutput {
			continue
		}
		pool = append(pool, c)
	}

	switch cfg.Strategy {
	case TopKUtilityPerByte, PackStorageBudget:
		if bounded && cfg.TopK > 0 && cfg.MaxPerJob != 1 &&
			!(cfg.Strategy == PackStorageBudget && cfg.StorageBudget > 0) {
			// The selection loop below takes the first TopK of the sorted
			// pool verbatim (no skips are configured), so the k best under
			// the density order are all it can ever see.
			pool = topKByDensity(pool, cfg.TopK)
		} else {
			sort.Slice(pool, func(i, j int) bool {
				return denseBefore(pool[i], pool[j])
			})
		}
	case PackStorageBudgetOptimal:
		pool = packOptimal(pool, cfg.StorageBudget)
	default:
		// already utility-sorted by aggregate
	}

	var out []Candidate
	usedJobs := map[string]bool{}
	var usedBytes int64
	for _, c := range pool {
		if cfg.TopK > 0 && len(out) >= cfg.TopK {
			break
		}
		if cfg.MaxPerJob == 1 && anyUsed(c.Jobs, usedJobs) {
			continue
		}
		if cfg.Strategy == PackStorageBudget && cfg.StorageBudget > 0 &&
			usedBytes+int64(c.AvgBytes) > cfg.StorageBudget {
			continue
		}
		out = append(out, c)
		usedBytes += int64(c.AvgBytes)
		for _, j := range c.Jobs {
			usedJobs[j] = true
		}
	}
	return out
}

func density(c Candidate) float64 {
	if c.AvgBytes <= 0 {
		return c.Utility
	}
	return c.Utility / c.AvgBytes
}

// denseBefore is the density-strategy sort order: density descending, ties
// by NormSig ascending. NormSig is unique per candidate, so this is a
// total order — what makes heap selection reproduce the full sort exactly.
func denseBefore(a, b Candidate) bool {
	da, db := density(a), density(b)
	if da != db {
		return da > db
	}
	return a.NormSig < b.NormSig
}

func anyUsed(jobs []string, used map[string]bool) bool {
	for _, j := range jobs {
		if used[j] {
			return true
		}
	}
	return false
}

// annotate renders selected candidates as metadata-service annotations.
func annotate(selected []Candidate) []metadata.Annotation {
	out := make([]metadata.Annotation, len(selected))
	for i, c := range selected {
		out[i] = metadata.Annotation{
			NormSig:      c.NormSig,
			Tags:         c.Tags,
			Props:        c.Props,
			AvgRuntime:   c.AvgRuntime,
			ExpiryDelta:  c.ExpiryDelta,
			Utility:      c.Utility,
			StorageBytes: int64(c.AvgBytes),
			Frequency:    c.Frequency,
		}
	}
	return out
}

// coordinate produces the job submission order of §6.5 (see orderBuilders)
// from the analyzed observations.
func coordinate(selected []Candidate, obs []workload.Observation) []string {
	if len(selected) == 0 {
		return nil
	}
	jobRuntime := map[string]float64{}
	jobOverlaps := map[string]int{}
	selectedSigs := map[string]bool{}
	for _, c := range selected {
		selectedSigs[c.NormSig] = true
	}
	for i := range obs {
		o := &obs[i]
		if o.JobLatency > jobRuntime[o.Job.JobID] {
			jobRuntime[o.Job.JobID] = o.JobLatency
		}
		if selectedSigs[o.NormSig] {
			jobOverlaps[o.Job.JobID]++
		}
	}
	return orderBuilders(selected, jobRuntime, jobOverlaps)
}

// orderBuilders is the §6.5 order: per selected view, jobs containing it
// form a group; the group's builder is its shortest job (ties broken by
// fewer overlaps, then ID). Deduplicated builders run first — ordered by
// runtime, ties by overlap count — so each view is built exactly once
// before its consumers arrive. jobRuntime holds each job's longest
// latency and jobOverlaps its occurrences of selected signatures; only
// the selected candidates' jobs are read.
func orderBuilders(selected []Candidate, jobRuntime map[string]float64, jobOverlaps map[string]int) []string {
	builderSet := map[string]bool{}
	for _, c := range selected {
		best := ""
		for _, j := range c.Jobs {
			if best == "" || less(j, best, jobRuntime, jobOverlaps) {
				best = j
			}
		}
		if best != "" {
			builderSet[best] = true
		}
	}
	builders := sortedKeys(builderSet)
	sort.Slice(builders, func(i, j int) bool {
		return less(builders[i], builders[j], jobRuntime, jobOverlaps)
	})
	return builders
}

// less orders jobs by runtime, then by overlap count, then by ID.
func less(a, b string, runtime map[string]float64, overlaps map[string]int) bool {
	if runtime[a] != runtime[b] {
		return runtime[a] < runtime[b]
	}
	if overlaps[a] != overlaps[b] {
		return overlaps[a] < overlaps[b]
	}
	return a < b
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
