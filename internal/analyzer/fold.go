package analyzer

import (
	"iter"
	"sort"

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
		an = mine(from, to, f, cfg)
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
	return mine(from, to, &f, cfg)
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

// mine is both paths' tail: it finalizes every signature f saw twice,
// sorts the candidates, selects, annotates, and orders the builders.
func mine(from, to int64, f *workload.Fold, cfg Config) *Analysis {
	an := &Analysis{WindowFrom: from, WindowTo: to,
		TotalJobs: len(f.Jobs.IDs), TotalSubgraphs: f.Observations}
	for sig, s := range f.Sigs.Overlaps {
		an.Candidates = append(an.Candidates, finalize(sig, s, f.Jobs.IDs, f.Periods))
	}
	byUtility(an.Candidates)
	an.Selected = selectViews(an.Candidates, cfg, true)
	an.Annotations = annotate(an.Selected)
	an.JobOrder = coordinateFolded(an.Selected, f)
	return an
}

// coordinateFolded is coordinate over a fold: each job's runtime comes
// from the job index and its overlap count from the selected signatures'
// per-job occurrence counts — the same two maps coordinate builds from the
// observations.
func coordinateFolded(selected []Candidate, f *workload.Fold) []string {
	if len(selected) == 0 {
		return nil
	}
	jobRuntime := map[string]float64{}
	jobOverlaps := map[string]int{}
	for _, c := range selected {
		for _, j := range f.Sigs.Overlaps[c.NormSig].Jobs {
			id := f.Jobs.IDs[j.Job]
			jobRuntime[id] = f.Jobs.Latency[j.Job]
			jobOverlaps[id] += int(j.Count)
		}
	}
	return orderBuilders(selected, jobRuntime, jobOverlaps)
}

// finalize renders one recurring signature's running statistics as a
// Candidate, mirroring the serial aggregate's per-group epilogue. Every
// slice it returns is a fresh copy, so nothing of the fold it reads
// escapes; jobIDs resolves the fold's job indices.
func finalize(sig string, f *workload.SigFold, jobIDs []string, periods map[string]int64) Candidate {
	c := Candidate{NormSig: sig, Frequency: f.Freq, RootOp: f.RootOp}
	n := float64(f.Freq)
	c.AvgCost = f.Cost / n
	c.AvgLatency = f.Latency / n
	c.AvgRuntime = c.AvgLatency
	c.AvgRows = f.Rows / n
	c.AvgBytes = f.Bytes / n
	c.CostRatio = f.Ratio / n
	c.ReadCost = exec.OperatorCost(plan.OpViewScan, 0, int64(c.AvgRows), int64(c.AvgBytes))
	saving := c.AvgCost - c.ReadCost
	if saving < 0 {
		saving = 0
	}
	c.Utility = float64(c.Frequency-1) * saving
	c.JobCount = len(f.Jobs)
	c.UserCount = len(f.Users)
	c.Jobs = make([]string, len(f.Jobs))
	for k, j := range f.Jobs {
		c.Jobs[k] = jobIDs[j.Job]
	}
	c.Inputs = append(make([]string, 0, len(f.Inputs)), f.Inputs...)
	c.Tags = mergeSorted(f.Inputs, f.Templates)
	c.Props, c.MultiDesign = f.Designs.Elect()
	c.ExpiryDelta = expiryFromLineage(c.Inputs, periods)
	return c
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

// byUtility sorts candidates by utility descending, ties by signature —
// a total order, so the result is independent of map iteration order.
func byUtility(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Utility != cands[j].Utility {
			return cands[i].Utility > cands[j].Utility
		}
		return cands[i].NormSig < cands[j].NormSig
	})
}
