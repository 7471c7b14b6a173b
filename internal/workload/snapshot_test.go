package workload

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
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

// allRuns returns every run of r.
func allRuns(r *Repository) []Run {
	_, runs := r.WindowRuns(math.MinInt64, math.MaxInt64)
	return runs
}

// TestWindowRuns pins the run index: consecutive observations of one
// instance coalesce into one run, an instance recorded again after another
// starts a new run, WindowRuns keeps record order and aliases the
// snapshot, returned runs are copies, and Load rebuilds the same runs.
func TestWindowRuns(t *testing.T) {
	if obs, runs := NewRepository().WindowRuns(math.MinInt64, math.MaxInt64); len(obs) != 0 || len(runs) != 0 {
		t.Errorf("empty repository: %d observations, runs %v", len(obs), runs)
	}

	r := NewRepository()
	r.Append(obsFor("a", 0, "x"), obsFor("a", 0, "y"), obsFor("b", 0, "x"))
	r.Append(obsFor("c", 2, "x"))
	r.Append(obsFor("d", 1, "x"), obsFor("d", 1, "y"))
	r.Append(obsFor("e", 2, "z"))
	want := []Run{{0, 0, 3}, {2, 3, 4}, {1, 4, 6}, {2, 6, 7}}
	if got := allRuns(r); !slices.Equal(got, want) {
		t.Errorf("runs = %v, want %v", got, want)
	}
	obs, runs := r.WindowRuns(1, 2)
	if want := []Run{{2, 3, 4}, {1, 4, 6}, {2, 6, 7}}; !slices.Equal(runs, want) {
		t.Errorf("window [1, 2] runs = %v, want %v (record order)", runs, want)
	}
	if len(obs) != 7 || &obs[0] != &r.Snapshot()[0] {
		t.Errorf("WindowRuns should return the snapshot itself")
	}
	if _, none := r.WindowRuns(3, 9); len(none) != 0 {
		t.Errorf("window [3, 9] runs = %v, want none", none)
	}

	r.Append(obsFor("e", 2, "w"))
	if runs[2] != (Run{2, 6, 7}) {
		t.Errorf("a later append changed a returned run: %v", runs[2])
	}
	want[3].Hi = 8
	if got := allRuns(r); !slices.Equal(got, want) {
		t.Errorf("after extending the last run: runs = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := allRuns(loaded); !slices.Equal(got, want) {
		t.Errorf("loaded runs = %v, want %v", got, want)
	}
}

// checkRuns reports whether runs tile obs exactly, in order, with every
// observation in a run of its own instance.
func checkRuns(obs []Observation, runs []Run) error {
	next := 0
	for _, run := range runs {
		if run.Lo != next || run.Hi <= run.Lo {
			return fmt.Errorf("run %v does not start at %d", run, next)
		}
		for i := run.Lo; i < run.Hi; i++ {
			if obs[i].Job.Instance != run.Instance {
				return fmt.Errorf("observation %d of instance %d in run %v", i, obs[i].Job.Instance, run)
			}
		}
		next = run.Hi
	}
	if next != len(obs) {
		return fmt.Errorf("runs end at %d of %d observations", next, len(obs))
	}
	return nil
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
// Snapshot, WindowRuns, InputPeriods and NumJobs readers — the shape of
// RunBatch recording while the analyzer mines — and then checks that the
// periods folded at write match a recomputation from the final snapshot.
// Readers clear the maps InputPeriods hands them, so a live map leaks into
// the final comparison as well as into the race detector; every run index
// they read must tile its snapshot.
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
				if err := checkRuns(repo.WindowRuns(math.MinInt64, math.MaxInt64)); err != nil {
					t.Error(err)
					return
				}
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
	if err := checkRuns(repo.WindowRuns(math.MinInt64, math.MaxInt64)); err != nil {
		t.Error(err)
	}
}
