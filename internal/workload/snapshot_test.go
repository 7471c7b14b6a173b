package workload

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"
)

func obsFor(job string, instance int64, sig string) Observation {
	return Observation{
		Job:     JobMeta{JobID: job, Instance: instance, Period: 1},
		NormSig: sig,
		JobCPU:  100,
	}
}

// TestSnapshotAliasesLiveStorage pins the zero-copy contract: Snapshot
// returns the repository's own slice, and a snapshot taken before more
// appends still sees a consistent generation.
func TestSnapshotAliasesLiveStorage(t *testing.T) {
	r := NewRepository()
	r.Append(obsFor("j1", 0, "a"), obsFor("j2", 0, "b"))
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	r.Append(obsFor("j3", 1, "c"))
	if len(snap) != 2 {
		t.Errorf("old snapshot grew to %d", len(snap))
	}
	if snap[0].Job.JobID != "j1" || snap[1].Job.JobID != "j2" {
		t.Errorf("old snapshot mutated: %v", snap)
	}
	if got := r.Snapshot(); len(got) != 3 {
		t.Errorf("new snapshot len = %d, want 3", len(got))
	}
}

// TestAppendCountsDistinctJobs pins NumJobs to distinct job IDs: a job
// whose observations arrive in several places counts once.
func TestAppendCountsDistinctJobs(t *testing.T) {
	r := NewRepository()
	r.Append(obsFor("j1", 0, "a"), obsFor("j2", 0, "b"), obsFor("j1", 0, "c"))
	if r.NumJobs() != 2 {
		t.Errorf("NumJobs = %d, want 2", r.NumJobs())
	}
}

// periodsOf recomputes InputPeriods the slow way, from the observations.
func periodsOf(obs []Observation) map[string]int64 {
	out := map[string]int64{}
	for _, o := range obs {
		for _, in := range o.Inputs {
			if o.Job.Period > out[in] {
				out[in] = o.Job.Period
			}
		}
	}
	return out
}

// TestConcurrentWritersAndReaders runs Record and Append writers against
// Snapshot, InputPeriods and NumJobs readers — the shape of RunBatch
// recording while the analyzer mines — and then checks that the periods
// folded at write match a recomputation from the final snapshot. Readers
// clear the maps InputPeriods hands them, so a live map leaks into the
// final comparison as well as into the race detector.
func TestConcurrentWritersAndReaders(t *testing.T) {
	e, p := setup(t)
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewRepository()
	const rounds = 40

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(2)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				m := meta(fmt.Sprintf("rec-%d-%d", w, i), int64(i))
				m.Period = int64(1 + (i+w)%7)
				repo.Record(m, p, res)
			}
		}(w)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				o := obsFor(fmt.Sprintf("app-%d-%d", w, i), int64(i), "s")
				o.Job.Period = int64(1 + (i*3+w)%11)
				o.Inputs = []string{fmt.Sprintf("in%d", i%5), "events"}
				repo.Append(o, o)
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastObs, lastJobs := 0, 0
			for {
				select {
				case <-done:
					return
				default:
				}
				n, jobs := len(repo.Snapshot()), repo.NumJobs()
				if n < lastObs || jobs < lastJobs {
					t.Errorf("repository shrank: %d obs, %d jobs after %d, %d", n, jobs, lastObs, lastJobs)
					return
				}
				lastObs, lastJobs = n, jobs
				clear(repo.InputPeriods())
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	clear(repo.InputPeriods())
	if got, want := repo.InputPeriods(), periodsOf(repo.Snapshot()); !maps.Equal(got, want) {
		t.Errorf("InputPeriods = %v, recomputed %v", got, want)
	}
	if got, want := repo.NumJobs(), 4*rounds; got != want {
		t.Errorf("NumJobs = %d, want %d", got, want)
	}
	if got, want := len(repo.Snapshot()), 2*rounds*(5+2); got != want {
		t.Errorf("observations = %d, want %d", got, want)
	}
}
