package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

// warmService builds a service with seeded history, analyzed annotations,
// instance 1 delivered, and the annotated view already materialized by a
// serial builder job — the steady state where a batch of consumers should
// all reuse and none build.
func warmService(t testing.TB) *Service {
	t.Helper()
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	r, err := s.Run(context.Background(), specA("warm-builder", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Decision.ViewsBuilt) != 1 {
		t.Fatalf("warm builder built %d views, want 1", len(r.Decision.ViewsBuilt))
	}
	return s
}

// consumerSpecs is a deterministic mixed batch over both templates.
func consumerSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = specA(fmt.Sprintf("consume-a%d", i), 1)
		} else {
			specs[i] = specB(fmt.Sprintf("consume-b%d", i), 1)
		}
	}
	return specs
}

func usedSigs(r *JobResult) []string {
	sigs := make([]string, 0, len(r.Decision.ViewsUsed))
	for _, v := range r.Decision.ViewsUsed {
		sigs = append(sigs, v.PreciseSig)
	}
	sort.Strings(sigs)
	return sigs
}

// TestSubmitBatchMatchesSerial is the concurrency determinism test: the
// same workload submitted serially on one warmed service and through
// SubmitBatch(concurrency 8) on an identically-warmed service must yield
// identical per-job outputs, identical simulated TotalCPU, and identical
// view-reuse decisions.
func TestSubmitBatchMatchesSerial(t *testing.T) {
	sSerial, sBatch := warmService(t), warmService(t)
	specs := consumerSpecs(16)

	serial := make([]*JobResult, len(specs))
	for i, spec := range specs {
		r, err := sSerial.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		serial[i] = r
	}
	batch, err := sBatch.RunBatch(context.Background(), specs, BatchOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(serial) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(serial))
	}

	for i := range specs {
		sr, br := serial[i], batch[i]
		for name, rows := range sr.Result.Outputs {
			if !data.RowsEqual(rows, br.Result.Outputs[name]) {
				t.Errorf("job %d output %q differs between serial and batch", i, name)
			}
		}
		if len(br.Result.Outputs) != len(sr.Result.Outputs) {
			t.Errorf("job %d output count %d vs %d", i, len(br.Result.Outputs), len(sr.Result.Outputs))
		}
		if br.Result.TotalCPU != sr.Result.TotalCPU {
			t.Errorf("job %d TotalCPU %v (batch) vs %v (serial)", i, br.Result.TotalCPU, sr.Result.TotalCPU)
		}
		if got, want := usedSigs(br), usedSigs(sr); len(got) != len(want) {
			t.Errorf("job %d ViewsUsed %v vs %v", i, got, want)
		} else {
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("job %d ViewsUsed[%d] %q vs %q", i, j, got[j], want[j])
				}
			}
		}
		if len(sr.Decision.ViewsUsed) == 0 {
			t.Errorf("job %d reused nothing — warm service should always hit the view", i)
		}
		if len(sr.Decision.ViewsBuilt)+len(br.Decision.ViewsBuilt) != 0 {
			t.Errorf("job %d built views on a warmed service", i)
		}
	}
}

// TestSubmitBatchConcurrentSoak drives a cold batch — builders and
// consumers racing for the build lock — through RunBatch and checks the
// §6.5 invariants: every job succeeds, exactly one build happens per
// annotated signature, and every job of a template produces the same
// rows. Run it under -race to check the whole submission pipeline (repo,
// clock, metadata, view store).
func TestSubmitBatchConcurrentSoak(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	specs := consumerSpecs(24) // no warm builder: the batch must elect one
	results, err := s.RunBatch(context.Background(), specs, BatchOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("in-flight count %d after batch, want 0", got)
	}

	buildsBySig := map[string]int{}
	refByOutput := map[string][]data.Row{}
	for i, r := range results {
		if r == nil {
			t.Fatalf("job %d: nil result without error", i)
		}
		for _, b := range r.Decision.ViewsBuilt {
			buildsBySig[b.PreciseSig]++
		}
		for name, rows := range r.Result.Outputs {
			if ref, ok := refByOutput[name]; !ok {
				refByOutput[name] = rows
			} else if !data.RowsEqual(ref, rows) {
				t.Errorf("job %d output %q differs from its template peers", i, name)
			}
		}
		if r.FinishTime < r.StartTime {
			t.Errorf("job %d finished at %d before starting at %d", i, r.FinishTime, r.StartTime)
		}
	}
	if len(buildsBySig) == 0 {
		t.Error("no job built the annotated view")
	}
	for sig, n := range buildsBySig {
		if n != 1 {
			t.Errorf("signature %s built %d times, want 1 (build-build sync)", sig, n)
		}
	}
	if s.Store.Len() != len(buildsBySig) {
		t.Errorf("store holds %d views, want %d", s.Store.Len(), len(buildsBySig))
	}

	// The repository recorded every job; a fresh analysis still works on
	// concurrently recorded history.
	an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 1})
	if len(an.Selected) == 0 {
		t.Error("analyzer found nothing in concurrently recorded history")
	}
}

// TestConcurrentRunsShareOnePlan runs one plan object from two goroutines
// at once on a service with reuse off, so neither job clones it: both
// executors read the same nodes. Plan nodes must be safe for concurrent
// readers (run under -race; `make race` does).
func TestConcurrentRunsShareOnePlan(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: false})
	spec := specA("x", 0)
	results := make([]*JobResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := spec
			job.Meta.JobID = fmt.Sprintf("x%d", i)
			results[i], errs[i] = s.Run(context.Background(), job)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := outputsEqual(results[0].Result, results[1].Result); err != nil {
		t.Fatalf("two runs of one plan diverge: %v", err)
	}
}
