package workgen

import (
	"reflect"
	"testing"

	"cloudviews/internal/workload"
)

// TestSyntheticObservationsDeterministic pins the generator: same profile,
// same observations, bit for bit — and batching by instance must not
// change anything (each job's statistics generator is seeded from the job
// ID alone).
func TestSyntheticObservationsDeterministic(t *testing.T) {
	p := DefaultProfile("synth", 5)
	a := Generate(p).SyntheticObservations(3)
	b := Generate(p).SyntheticObservations(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same profile differ")
	}
	if len(a) == 0 {
		t.Fatal("no observations generated")
	}
}

// TestSyntheticObservationsShape checks the observations carry what the
// analyzer mines: real recurring overlap (same normalized signature across
// instances), varying precise signatures, plausible statistics, and job
// totals shared within a job.
func TestSyntheticObservationsShape(t *testing.T) {
	p := DefaultProfile("shape", 9)
	obs := Generate(p).SyntheticObservations(2)

	bySig := map[string][]int{}
	byJob := map[string]float64{}
	for i, o := range obs {
		if o.NormSig == "" || o.PreciseSig == "" {
			t.Fatalf("observation %d missing signatures", i)
		}
		if o.CumulativeCost < o.ExclusiveCost || o.Rows <= 0 || o.Bytes <= 0 {
			t.Fatalf("observation %d has implausible stats: %+v", i, o)
		}
		if prev, ok := byJob[o.Job.JobID]; ok && prev != o.JobCPU {
			t.Fatalf("job %s has inconsistent JobCPU", o.Job.JobID)
		}
		byJob[o.Job.JobID] = o.JobCPU
		if o.JobCPU < o.CumulativeCost {
			t.Fatalf("observation %d costs more than its job: %+v", i, o)
		}
		bySig[o.NormSig] = append(bySig[o.NormSig], i)
	}
	recurring, preciseVaries := 0, 0
	for _, idxs := range bySig {
		insts := map[int64]bool{}
		precise := map[string]bool{}
		for _, i := range idxs {
			insts[obs[i].Job.Instance] = true
			precise[obs[i].PreciseSig] = true
		}
		if len(insts) >= 2 {
			recurring++
			if len(precise) >= 2 {
				preciseVaries++
			}
		}
	}
	if recurring == 0 {
		t.Error("no normalized signature recurs across instances")
	}
	// Subgraphs above the recurring filter carry the day parameter, so
	// their precise signatures differ per instance (subgraphs below it —
	// bare scans, side branches — legitimately do not).
	if preciseVaries == 0 {
		t.Error("no recurring computation varies its precise signature across instances")
	}

	// SyntheticUntil delivers at least the requested volume and ingests
	// cleanly.
	more := Generate(p).SyntheticUntil(len(obs) + 100)
	if len(more) <= len(obs) {
		t.Fatalf("SyntheticUntil(%d) returned %d observations", len(obs)+100, len(more))
	}
	repo := workload.NewRepository()
	repo.Append(more...)
	if repo.NumJobs() == 0 || len(repo.Snapshot()) != len(more) {
		t.Fatalf("repository ingest lost observations")
	}
}
