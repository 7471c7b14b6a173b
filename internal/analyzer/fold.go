package analyzer

import (
	"iter"
	"slices"

	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// fold.go mines candidates from per-signature running statistics
// (workload.SigFold) along two paths that share one tail (mine): Analyze
// finalizes the repository's own write-time fold when the config reads
// exactly what it folded (analyzeFolded), and otherwise folds the window's
// observations with the same fold body (analyzeSnapshot). DESIGN.md §12
// has both.

// analyzeFolded is Analyze for a config that reads exactly what the
// repository folded at write: every recorded instance and no admin scope.
// Under one read lock it finalizes the running statistics,
// selects, and orders the builders, with no pass over the observations.
// ok is false, and nothing is computed, for any other config.
func (a *Analyzer) analyzeFolded(cfg Config) (an *Analysis, ok bool) {
	from, to := analysisWindow(cfg)
	a.Repo.ReadFold(func(f *workload.Fold) {
		if cfg.scoped() ||
			(f.Observations > 0 && (from > f.MinInstance || to < f.MaxInstance)) {
			return
		}
		ok = true
		an = mine(from, to, f, slices.Clone(f.Jobs.IDs), cfg)
	})
	return an, ok
}

// analyzeSnapshot is Analyze for every other config: one single-threaded
// pass over exactly the window's runs of one repository generation folds
// each in-scope observation into a local Fold — the same fold body the repository runs at write, in the
// same record order.
func (a *Analyzer) analyzeSnapshot(cfg Config) *Analysis {
	from, to := analysisWindow(cfg)
	obs, runs := a.Repo.WindowRuns(from, to)
	f := workload.Fold{Periods: a.Repo.InputPeriods()}
	for i, o := range inWindow(obs, runs, &cfg) {
		f.Sigs.Add(obs, i, f.Jobs.Add(o))
		f.Observations++
	}
	return mine(from, to, &f, f.Jobs.IDs, cfg)
}

// inWindow yields the index and address of every observation of the runs
// that passes cfg's admin scope, in record order.
func inWindow(obs []workload.Observation, runs []workload.Run, cfg *Config) iter.Seq2[int, *workload.Observation] {
	scoped := cfg.scoped()
	return func(yield func(int, *workload.Observation) bool) {
		for _, run := range runs {
			for i := run.Lo; i < run.Hi; i++ {
				if o := &obs[i]; (!scoped || scopeMatch(o, cfg)) && !yield(i, o) {
					return
				}
			}
		}
	}
}

// mineKey is one recurring signature's place in the candidate order.
type mineKey struct {
	utility float64
	sig     string
	fold    *workload.SigFold
}

// mine is both paths' tail. It ranks every signature f saw twice under
// utilityOrder and finalizes them in that order, then selects, annotates,
// and orders the builders. jobIDs names f's job indices and becomes the
// analysis's JobIDs.
func mine(from, to int64, f *workload.Fold, jobIDs []string, cfg Config) *Analysis {
	an := &Analysis{WindowFrom: from, WindowTo: to, JobIDs: jobIDs,
		TotalJobs: len(jobIDs), TotalSubgraphs: f.Observations}
	keys := make([]mineKey, 0, len(f.Sigs.Overlaps))
	jobs := 0
	for sig, s := range f.Sigs.Overlaps {
		n := float64(s.Freq)
		_, u := netUtility(s.Freq, s.Cost/n, s.Rows/n, s.Bytes/n)
		keys = append(keys, mineKey{u, sig, s})
		jobs += len(s.Jobs)
	}
	slices.SortFunc(keys, func(a, b mineKey) int { return utilityOrder(a.utility, a.sig, b.utility, b.sig) })
	if len(keys) > 0 {
		an.Candidates = make([]Candidate, len(keys))
	}
	// Every candidate's jobs are carved from one pointer-free block.
	block := make([]int32, jobs)
	for i, k := range keys {
		n := len(k.fold.Jobs)
		finalize(&an.Candidates[i], k.sig, k.fold, block[:n:n], f.Periods)
		block = block[n:]
	}
	an.Selected = selectViews(an.Candidates, len(jobIDs), cfg, true)
	an.Annotations = annotate(an.Selected)
	if len(an.Selected) > 0 {
		// Each job's overlap count: its occurrences of the selected
		// signatures, which their folds already hold per job.
		overlaps := make([]int32, len(jobIDs))
		for _, c := range an.Selected {
			for _, j := range f.Sigs.Overlaps[c.NormSig].Jobs {
				overlaps[j.Job] += j.Count
			}
		}
		an.JobOrder = orderBuilders(an.Selected, jobIDs, f.Jobs.Latency, overlaps)
	}
	return an
}

// finalize renders one recurring signature's running statistics into c,
// mirroring the serial aggregate's per-group epilogue. It fills jobs,
// which has one slot per job of f, with their indices and makes it c's
// Jobs; every other slice it stores is a fresh copy, so nothing of the
// fold it reads escapes.
func finalize(c *Candidate, sig string, f *workload.SigFold, jobs []int32, periods map[string]int64) {
	*c = Candidate{NormSig: sig, Frequency: f.Freq, RootOp: f.RootOp}
	n := float64(f.Freq)
	c.AvgCost = f.Cost / n
	c.AvgLatency = f.Latency / n
	c.AvgRuntime = c.AvgLatency
	c.AvgRows = f.Rows / n
	c.AvgBytes = f.Bytes / n
	c.CostRatio = f.Ratio / n
	c.ReadCost, c.Utility = netUtility(c.Frequency, c.AvgCost, c.AvgRows, c.AvgBytes)
	c.JobCount = len(f.Jobs)
	c.UserCount = len(f.Users)
	for k, j := range f.Jobs {
		jobs[k] = j.Job
	}
	c.Jobs = jobs
	c.Inputs = append(make([]string, 0, len(f.Inputs)), f.Inputs...)
	c.Tags = mergeSorted(f.Inputs, f.Templates)
	c.Props, c.MultiDesign = f.Designs.Elect()
	c.ExpiryDelta = expiryFromLineage(c.Inputs, periods)
}

// netUtility returns the cost of reading a view of avgRows rows and
// avgBytes bytes and the net saving of serving a signature's freq
// occurrences from it: every occurrence after the first reads the view
// instead of spending avgCost. mine ranks by it and finalize stores it,
// so the two agree to the bit.
func netUtility(freq int, avgCost, avgRows, avgBytes float64) (readCost, utility float64) {
	readCost = exec.OperatorCost(plan.OpViewScan, 0, int64(avgRows), int64(avgBytes))
	saving := avgCost - readCost
	if saving < 0 {
		saving = 0
	}
	return readCost, float64(freq-1) * saving
}

// mergeSorted returns the sorted union of two sorted, duplicate-free
// slices as a fresh slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}
