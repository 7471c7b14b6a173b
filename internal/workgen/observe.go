package workgen

import (
	"math/rand"

	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/workload"
)

// observe.go synthesizes workload-repository observations directly from
// template plans, without executing anything — the fuel for analyzer tests
// and benchmarks at scales (hundreds of thousands of observations) where
// actually running every job would dominate by orders of magnitude.
// Signatures are the real thing, computed from the instantiated plans, so
// overlap structure (cloned prefixes, producer/consumer pipelines,
// recurrence) is exactly what execution would have produced; only the
// runtime statistics are drawn from a per-job deterministic generator.
// Data delivery is skipped: no plan runs, and the recurring day parameter
// already varies precise signatures across instances while normalized
// signatures — the analyzer's grouping key — stay stable.

// SyntheticUntil instantiates every template for recurring instances 0,
// 1, … until at least minObs observations exist (benchmarks ask for
// observation counts, not instance counts), and returns one observation
// per subgraph, in submission order — the same order repository ingestion
// would record them. Instances are generated whole, so a smaller request
// yields a prefix of a larger one. Statistics are deterministic: each
// job's generator is seeded from its job ID and the profile seed, so the
// output is a pure function of the profile and minObs. Returns nil if the
// workload produces no observations.
func (w *Workload) SyntheticUntil(minObs int) []workload.Observation {
	var out []workload.Observation
	for i := int64(0); len(out) < minObs; i++ {
		n := len(out)
		for _, job := range w.JobsForInstance(i) {
			out = appendJobObservations(out, job, w.Profile.Seed)
		}
		if len(out) == n {
			// Nothing due this instance; every period divides some later
			// instance, so only an empty template set stalls forever.
			if i > 0 && n == 0 {
				return nil
			}
		}
	}
	return out
}

// appendJobObservations computes the job's subgraph signatures and
// synthesizes their runtime statistics.
func appendJobObservations(out []workload.Observation, job Job, seed int64) []workload.Observation {
	subs := signature.NewComputer().AllSubgraphs(job.Root)
	if len(subs) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(int64(signature.Hash64(job.Meta.JobID)) ^ seed))
	base := len(out)
	var maxCum float64
	for _, s := range subs {
		ops := plan.Count(s.Node)
		rows := 50 + rng.Int63n(20_000)
		bytes := rows * (16 + rng.Int63n(240))
		excl := 5 + rng.Float64()*300
		cum := excl + float64(ops-1)*(20+rng.Float64()*180)
		if cum > maxCum {
			maxCum = cum
		}
		out = append(out, workload.Observation{
			Job:            job.Meta,
			PreciseSig:     s.Sig.Precise,
			NormSig:        s.Sig.Normalized,
			RootOp:         s.Node.Kind,
			Rows:           rows,
			Bytes:          bytes,
			ExclusiveCost:  excl,
			CumulativeCost: cum,
			Latency:        cum * (0.4 + rng.Float64()*0.4),
			Inputs:         plan.Inputs(s.Node),
			Props:          plan.DeriveProps(s.Node),
			Ops:            ops,
		})
	}
	// Job totals: the root's cumulative cost plus unmodeled overhead.
	jobCPU := maxCum * (1.2 + rng.Float64()*0.6)
	jobLat := jobCPU * (0.3 + rng.Float64()*0.5)
	for i := base; i < len(out); i++ {
		out[i].JobCPU = jobCPU
		out[i].JobLatency = jobLat
	}
	return out
}
