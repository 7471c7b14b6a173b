package analyzer

import (
	"sort"

	"cloudviews/internal/plan"
	"cloudviews/internal/workload"
)

// OverlapStats quantifies the computation-overlap in a workload — the raw
// material of the paper's Figures 1–5. An occurrence is "overlapping" when
// its normalized signature appears at least twice in the analyzed window;
// a job/user "has overlap" when it shares a subgraph with another job.
type OverlapStats struct {
	TotalJobs        int
	TotalUsers       int
	TotalOccurrences int

	// Figure 1 style aggregates.
	PctJobsOverlapping      float64
	PctUsersOverlapping     float64
	PctSubgraphsOverlapping float64

	// Figure 2: per-VC view.
	VCJobOverlapPct map[string]float64
	VCAvgFrequency  map[string]float64
	VCNames         []string // sorted
	// Figure 3: overlap counts per entity (inputs to CDFs).
	OverlapsPerJob   []float64
	OverlapsPerInput []float64
	OverlapsPerUser  []float64
	OverlapsPerVC    []float64

	// Figure 4: operator breakdown of overlapping occurrences, and the
	// per-operator frequency samples behind Figures 4(b)–(d).
	OperatorPct         map[plan.OpKind]float64
	OperatorFrequencies map[plan.OpKind][]float64

	// Figure 5: per-overlapping-signature distributions, emitted in
	// normalized-signature order so repeated runs (and the folded and
	// serial paths) produce identical slices.
	Frequencies  []float64 // occurrence count per signature
	Runtimes     []float64 // average latency per signature
	SizesBytes   []float64 // average output bytes per signature
	CostRatios   []float64 // average view-to-query cost ratio per signature
	AvgFrequency float64
}

// newOverlapStats returns the empty-statistics value both paths start from.
func newOverlapStats() *OverlapStats {
	return &OverlapStats{
		VCJobOverlapPct:     map[string]float64{},
		VCAvgFrequency:      map[string]float64{},
		OperatorPct:         map[plan.OpKind]float64{},
		OperatorFrequencies: map[plan.OpKind][]float64{},
	}
}

// ComputeOverlapStats derives the overlap statistics of a set of subgraph
// observations, with the same fold as OverlapStats.
func ComputeOverlapStats(obs []workload.Observation) *OverlapStats {
	return overlapStats(obs, []workload.Run{{Hi: len(obs)}}, &Config{})
}

// OverlapStats computes the statistics for the configured window/scope,
// folding exactly the window's observations off the zero-copy repository
// snapshot instead of materializing filtered copies of the observation set.
func (a *Analyzer) OverlapStats(cfg Config) *OverlapStats {
	obs, runs := a.Repo.WindowRuns(analysisWindow(cfg))
	return overlapStats(obs, runs, &cfg)
}

// sigStat folds one normalized signature's occurrences for the statistics
// pass. Like workload.SigFold it parks the first occurrence and only
// allocates per-signature maps when a second occurrence arrives, so the
// long tail of non-overlapping signatures costs one pointer each.
type sigStat struct {
	first *workload.Observation
	count int
	// Sums folded in record order; used only for overlapping signatures.
	lat, bytes, ratio float64
	rootOp            plan.OpKind
	jobs              map[string]bool
	vcCounts          map[string]float64
}

func (s *sigStat) fold(o *workload.Observation) {
	s.count++
	if s.count == 1 {
		s.first = o
		return
	}
	if f := s.first; f != nil {
		s.first = nil
		s.rootOp = f.RootOp
		s.jobs = map[string]bool{}
		s.vcCounts = map[string]float64{}
		s.foldObs(f)
	}
	s.foldObs(o)
}

func (s *sigStat) foldObs(o *workload.Observation) {
	s.lat += o.Latency
	s.bytes += float64(o.Bytes)
	if o.JobCPU > 0 {
		s.ratio += o.CumulativeCost / o.JobCPU
	}
	s.jobs[o.Job.JobID] = true
	s.vcCounts[o.Job.VC]++
}

// overlapStats computes OverlapStats over the in-scope observations of the
// runs, byte-identical to computeOverlapStatsSerial over the equivalent
// filtered slice. It makes two passes: first the per-signature fold, then
// the entity pass, which needs the finished per-signature counts to
// evaluate the "overlapping" (count ≥ 2) and "cross-job" (distinct jobs ≥
// 2) predicates. The per-signature distributions are emitted in sorted
// signature order, the same canonical order the serial path uses.
func overlapStats(obs []workload.Observation, runs []workload.Run, cfg *Config) *OverlapStats {
	st := newOverlapStats()
	stats := map[string]*sigStat{}
	total := 0
	for _, o := range inWindow(obs, runs, cfg) {
		sig := stats[o.NormSig]
		if sig == nil {
			sig = &sigStat{}
			stats[o.NormSig] = sig
		}
		sig.fold(o)
		total++
	}
	if total == 0 {
		// Matches the serial empty-input early return: counters zero,
		// distribution slices nil.
		return st
	}

	jobs := map[string]bool{}
	users := map[string]bool{}
	jobsOverlapping := map[string]bool{}
	usersOverlapping := map[string]bool{}
	vcJobs := map[string]map[string]bool{}
	vcJobsOverlap := map[string]map[string]bool{}
	perJob := map[string]float64{}
	perInput := map[string]float64{}
	perUser := map[string]float64{}
	perVC := map[string]float64{}
	overlapOccurrences := 0
	for _, o := range inWindow(obs, runs, cfg) {
		jobs[o.Job.JobID] = true
		users[o.Job.User] = true
		vj := vcJobs[o.Job.VC]
		if vj == nil {
			vj = map[string]bool{}
			vcJobs[o.Job.VC] = vj
		}
		vj[o.Job.JobID] = true

		sig := stats[o.NormSig]
		if sig.count >= 2 {
			overlapOccurrences++
			perJob[o.Job.JobID]++
			perUser[o.Job.User]++
			perVC[o.Job.VC]++
			for _, in := range o.Inputs {
				perInput[in]++
			}
		}
		if len(sig.jobs) >= 2 {
			jobsOverlapping[o.Job.JobID] = true
			usersOverlapping[o.Job.User] = true
			vo := vcJobsOverlap[o.Job.VC]
			if vo == nil {
				vo = map[string]bool{}
				vcJobsOverlap[o.Job.VC] = vo
			}
			vo[o.Job.JobID] = true
		}
	}

	type sigEntry struct {
		sig string
		st  *sigStat
	}
	var entries []sigEntry
	for sig, s := range stats {
		if s.count >= 2 {
			entries = append(entries, sigEntry{sig: sig, st: s})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].sig < entries[j].sig })

	st.TotalJobs = len(jobs)
	st.TotalUsers = len(users)
	st.TotalOccurrences = total
	st.PctJobsOverlapping = pct(len(jobsOverlapping), len(jobs))
	st.PctUsersOverlapping = pct(len(usersOverlapping), len(users))
	st.PctSubgraphsOverlapping = pct(overlapOccurrences, total)

	var freqSum float64
	vcFreqSamples := map[string][]float64{}
	for _, e := range entries {
		f := float64(e.st.count)
		st.Frequencies = append(st.Frequencies, f)
		freqSum += f
		n := float64(e.st.count)
		st.Runtimes = append(st.Runtimes, e.st.lat/n)
		st.SizesBytes = append(st.SizesBytes, e.st.bytes/n)
		st.CostRatios = append(st.CostRatios, e.st.ratio/n)
		st.OperatorPct[e.st.rootOp]++
		st.OperatorFrequencies[e.st.rootOp] = append(st.OperatorFrequencies[e.st.rootOp], f)
		for vc, c := range e.st.vcCounts {
			vcFreqSamples[vc] = append(vcFreqSamples[vc], c)
		}
	}
	if len(st.Frequencies) > 0 {
		st.AvgFrequency = freqSum / float64(len(st.Frequencies))
	}
	if len(entries) > 0 {
		for op, c := range st.OperatorPct {
			st.OperatorPct[op] = c / float64(len(entries)) * 100
		}
	}
	for vc, jset := range vcJobs {
		st.VCNames = append(st.VCNames, vc)
		st.VCJobOverlapPct[vc] = pct(len(vcJobsOverlap[vc]), len(jset))
		if samples := vcFreqSamples[vc]; len(samples) > 0 {
			var s float64
			for _, x := range samples {
				s += x
			}
			st.VCAvgFrequency[vc] = s / float64(len(samples))
		}
	}
	sort.Strings(st.VCNames)

	st.OverlapsPerJob = values(perJob)
	st.OverlapsPerInput = values(perInput)
	st.OverlapsPerUser = values(perUser)
	st.OverlapsPerVC = values(perVC)
	return st
}

// computeOverlapStatsSerial is the reference overlapStats is diffed
// against — the original walk, with one fix pinned into both:
// per-signature distributions emit in sorted signature order rather than
// map iteration order, so the output is deterministic at all.
func computeOverlapStatsSerial(obs []workload.Observation) *OverlapStats {
	st := newOverlapStats()
	if len(obs) == 0 {
		return st
	}

	bySig := map[string][]workload.Observation{}
	sigJobs := map[string]map[string]bool{}
	for _, o := range obs {
		bySig[o.NormSig] = append(bySig[o.NormSig], o)
		if sigJobs[o.NormSig] == nil {
			sigJobs[o.NormSig] = map[string]bool{}
		}
		sigJobs[o.NormSig][o.Job.JobID] = true
	}
	crossJob := func(sig string) bool { return len(sigJobs[sig]) >= 2 }
	overlapping := func(sig string) bool { return len(bySig[sig]) >= 2 }

	jobs := map[string]bool{}
	users := map[string]bool{}
	jobsOverlapping := map[string]bool{}
	usersOverlapping := map[string]bool{}
	vcJobs := map[string]map[string]bool{}
	vcJobsOverlap := map[string]map[string]bool{}
	vcFreqSamples := map[string][]float64{}
	perJob := map[string]float64{}
	perInput := map[string]float64{}
	perUser := map[string]float64{}
	perVC := map[string]float64{}
	overlapOccurrences := 0

	for _, o := range obs {
		jobs[o.Job.JobID] = true
		users[o.Job.User] = true
		if vcJobs[o.Job.VC] == nil {
			vcJobs[o.Job.VC] = map[string]bool{}
			vcJobsOverlap[o.Job.VC] = map[string]bool{}
		}
		vcJobs[o.Job.VC][o.Job.JobID] = true

		if overlapping(o.NormSig) {
			overlapOccurrences++
			perJob[o.Job.JobID]++
			perUser[o.Job.User]++
			perVC[o.Job.VC]++
			for _, in := range o.Inputs {
				perInput[in]++
			}
		}
		if crossJob(o.NormSig) {
			jobsOverlapping[o.Job.JobID] = true
			usersOverlapping[o.Job.User] = true
			vcJobsOverlap[o.Job.VC][o.Job.JobID] = true
		}
	}

	st.TotalJobs = len(jobs)
	st.TotalUsers = len(users)
	st.TotalOccurrences = len(obs)
	st.PctJobsOverlapping = pct(len(jobsOverlapping), len(jobs))
	st.PctUsersOverlapping = pct(len(usersOverlapping), len(users))
	st.PctSubgraphsOverlapping = pct(overlapOccurrences, len(obs))

	// Per-signature distributions (Figure 5), operator breakdown over
	// *distinct* overlapping computations (Figure 4a's "percentage of
	// subgraphs"), and within-VC frequency samples for Figure 2b, in
	// canonical signature order.
	sigs := make([]string, 0, len(bySig))
	for sig := range bySig {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var freqSum float64
	distinctOverlaps := 0
	for _, sig := range sigs {
		g := bySig[sig]
		if len(g) < 2 {
			continue
		}
		distinctOverlaps++
		f := float64(len(g))
		st.Frequencies = append(st.Frequencies, f)
		freqSum += f
		var lat, bytes, ratio float64
		vcCounts := map[string]float64{}
		for _, o := range g {
			lat += o.Latency
			bytes += float64(o.Bytes)
			if o.JobCPU > 0 {
				ratio += o.CumulativeCost / o.JobCPU
			}
			vcCounts[o.Job.VC]++
		}
		n := float64(len(g))
		st.Runtimes = append(st.Runtimes, lat/n)
		st.SizesBytes = append(st.SizesBytes, bytes/n)
		st.CostRatios = append(st.CostRatios, ratio/n)
		st.OperatorPct[g[0].RootOp]++
		st.OperatorFrequencies[g[0].RootOp] = append(st.OperatorFrequencies[g[0].RootOp], f)
		// Figure 2b samples the computation's frequency *within* each VC
		// it occurs in.
		for vc, c := range vcCounts {
			vcFreqSamples[vc] = append(vcFreqSamples[vc], c)
		}
	}
	if len(st.Frequencies) > 0 {
		st.AvgFrequency = freqSum / float64(len(st.Frequencies))
	}

	// Normalize operator breakdown to percentages.
	if distinctOverlaps > 0 {
		for op, c := range st.OperatorPct {
			st.OperatorPct[op] = c / float64(distinctOverlaps) * 100
		}
	}

	// Per-VC aggregates (Figure 2).
	for vc, jset := range vcJobs {
		st.VCNames = append(st.VCNames, vc)
		st.VCJobOverlapPct[vc] = pct(len(vcJobsOverlap[vc]), len(jset))
		if samples := vcFreqSamples[vc]; len(samples) > 0 {
			var s float64
			for _, x := range samples {
				s += x
			}
			st.VCAvgFrequency[vc] = s / float64(len(samples))
		}
	}
	sort.Strings(st.VCNames)

	st.OverlapsPerJob = values(perJob)
	st.OverlapsPerInput = values(perInput)
	st.OverlapsPerUser = values(perUser)
	st.OverlapsPerVC = values(perVC)
	return st
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total) * 100
}

func values(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
