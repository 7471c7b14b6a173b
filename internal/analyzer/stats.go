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
	// normalized-signature order so repeated runs (and the parallel and
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
// observations, using the same sharded parallel fold as Analyze.
func ComputeOverlapStats(obs []workload.Observation) *OverlapStats {
	shards := shardObservations(obs, -1<<62, 1<<62-1, nil)
	return overlapStatsSharded(obs, shards)
}

// OverlapStats computes the statistics for the configured window/scope,
// streaming off the zero-copy repository snapshot — the window and scope
// filters fold into the shard pass instead of materializing filtered
// copies of the observation set.
func (a *Analyzer) OverlapStats(cfg Config) *OverlapStats {
	from, to := analysisWindow(cfg)
	obs := a.Repo.Snapshot()
	shards := shardObservations(obs, from, to, &cfg)
	return overlapStatsSharded(obs, shards)
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

// statsWorker is one worker's private fold state: per-signature statistics
// for its owned shards plus the entity aggregates over its owned
// observations. Entity keys (jobs, users, VCs, inputs) cut across shards,
// so those maps are set-unioned / count-summed in the merge; signatures
// never are — each lives wholly inside one worker.
type statsWorker struct {
	stats                             map[string]*sigStat
	count                             int
	jobs, users                       map[string]bool
	jobsOverlapping, usersOverlapping map[string]bool
	vcJobs, vcJobsOverlap             map[string]map[string]bool
	perJob, perInput, perUser, perVC  map[string]float64
	overlapOccurrences                int
}

// overlapStatsSharded computes OverlapStats over the observations whose
// shard is not shardSkip, byte-identical to computeOverlapStatsSerial over
// the equivalent filtered slice. Each worker runs two passes over its
// owned shards: first the per-signature fold, then the entity pass, which
// needs the finished per-signature counts to evaluate the "overlapping"
// (count ≥ 2) and "cross-job" (distinct jobs ≥ 2) predicates — both
// worker-local, since a signature's occurrences all land in one worker.
// Entity aggregates merge exactly (set unions and sums of integer-valued
// counts), and the per-signature distributions are emitted in sorted
// signature order, the same canonical order the serial path uses.
func overlapStatsSharded(obs []workload.Observation, shards []uint8) *OverlapStats {
	st := newOverlapStats()
	workers := foldWorkers(len(obs))
	ws := make([]*statsWorker, workers)
	runWorkers(workers, func(wi int) {
		lo, hi := workerShardRange(wi, workers)
		w := &statsWorker{
			stats:            map[string]*sigStat{},
			jobs:             map[string]bool{},
			users:            map[string]bool{},
			jobsOverlapping:  map[string]bool{},
			usersOverlapping: map[string]bool{},
			vcJobs:           map[string]map[string]bool{},
			vcJobsOverlap:    map[string]map[string]bool{},
			perJob:           map[string]float64{},
			perInput:         map[string]float64{},
			perUser:          map[string]float64{},
			perVC:            map[string]float64{},
		}
		for i := range obs {
			if s := shards[i]; s < lo || s >= hi {
				continue
			}
			o := &obs[i]
			sig := w.stats[o.NormSig]
			if sig == nil {
				sig = &sigStat{}
				w.stats[o.NormSig] = sig
			}
			sig.fold(o)
		}
		for i := range obs {
			if s := shards[i]; s < lo || s >= hi {
				continue
			}
			o := &obs[i]
			w.count++
			w.jobs[o.Job.JobID] = true
			w.users[o.Job.User] = true
			vj := w.vcJobs[o.Job.VC]
			if vj == nil {
				vj = map[string]bool{}
				w.vcJobs[o.Job.VC] = vj
			}
			vj[o.Job.JobID] = true

			sig := w.stats[o.NormSig]
			if sig.count >= 2 {
				w.overlapOccurrences++
				w.perJob[o.Job.JobID]++
				w.perUser[o.Job.User]++
				w.perVC[o.Job.VC]++
				for _, in := range o.Inputs {
					w.perInput[in]++
				}
			}
			if len(sig.jobs) >= 2 {
				w.jobsOverlapping[o.Job.JobID] = true
				w.usersOverlapping[o.Job.User] = true
				vo := w.vcJobsOverlap[o.Job.VC]
				if vo == nil {
					vo = map[string]bool{}
					w.vcJobsOverlap[o.Job.VC] = vo
				}
				vo[o.Job.JobID] = true
			}
		}
		ws[wi] = w
	})

	total := 0
	for _, w := range ws {
		total += w.count
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
	type sigEntry struct {
		sig string
		st  *sigStat
	}
	var entries []sigEntry
	for _, w := range ws {
		union(jobs, w.jobs)
		union(users, w.users)
		union(jobsOverlapping, w.jobsOverlapping)
		union(usersOverlapping, w.usersOverlapping)
		for vc, js := range w.vcJobs {
			if vcJobs[vc] == nil {
				vcJobs[vc] = map[string]bool{}
			}
			union(vcJobs[vc], js)
		}
		for vc, js := range w.vcJobsOverlap {
			if vcJobsOverlap[vc] == nil {
				vcJobsOverlap[vc] = map[string]bool{}
			}
			union(vcJobsOverlap[vc], js)
		}
		sumCounts(perJob, w.perJob)
		sumCounts(perInput, w.perInput)
		sumCounts(perUser, w.perUser)
		sumCounts(perVC, w.perVC)
		overlapOccurrences += w.overlapOccurrences
		for sig, s := range w.stats {
			if s.count >= 2 {
				entries = append(entries, sigEntry{sig: sig, st: s})
			}
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

// computeOverlapStatsSerial is the single-threaded reference the sharded
// path is diffed against — the pre-scale-out walk, with one fix pinned into
// both: per-signature distributions emit in sorted signature order rather
// than map iteration order, so the output is deterministic at all.
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

// union adds src's keys to dst.
func union(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

// sumCounts adds src's counts into dst. The counts are integer-valued
// floats (increments of 1), so the cross-worker sum is exact and
// order-independent.
func sumCounts(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}
