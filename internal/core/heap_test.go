package core

import (
	"context"
	"runtime"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/data"
	"cloudviews/internal/workgen"
)

// maxHeapPerJob bounds how much live heap each job may leave behind once
// its result is dropped. What a job must keep is its subgraph observations
// in the workload repository; its plan, statistics and outputs must go.
const maxHeapPerJob = 13 << 10

// maxHeldResultsHeap bounds what holding one instance's results may cost
// over dropping them: the results should pin about their own rows, not the
// emit arenas those rows were carved from.
const maxHeldResultsHeap = 10 << 20

// heapWorkload plays a recurring workload of 64-row inputs through one
// service, instance by instance, for the post-GC heap tests.
type heapWorkload struct {
	t   *testing.T
	w   *workgen.Workload
	svc *Service
}

func newHeapWorkload(t *testing.T, templates int) *heapWorkload {
	p := workgen.DefaultProfile("heap", 11)
	p.Templates = templates
	p.RowsPerInput = 64
	w := workgen.Generate(p)
	return &heapWorkload{t: t, w: w, svc: NewService(w.Catalog, Config{Enabled: true})}
}

// play runs every job of instance inst, hands each result to keep (nil
// drops it as soon as the job returns) and returns the job count.
func (h *heapWorkload) play(inst int64, keep func(*JobResult)) int {
	if inst > 0 {
		h.w.DeliverInstance(inst)
	}
	h.svc.BeginInstance(inst)
	jobs := h.w.JobsForInstance(inst)
	for _, j := range jobs {
		res, err := h.svc.Run(context.Background(), JobSpec{Meta: j.Meta, Root: j.Root})
		if err != nil {
			h.t.Fatalf("instance %d job %s: %v", inst, j.Meta.JobID, err)
		}
		if keep != nil {
			keep(res)
		}
	}
	return len(jobs)
}

// postGCMemStats reads the heap statistics after two full collections.
func postGCMemStats() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestRetainedHeapPerJob plays a recurring workload for twelve instances,
// dropping every result, and bounds the post-GC heap growth per job over
// instances 5–12: the service's own retained state, with nothing held by
// the caller.
func TestRetainedHeapPerJob(t *testing.T) {
	h := newHeapWorkload(t, 100)
	h.play(0, nil)
	h.svc.RunAnalyzer(analyzer.Config{MinFrequency: 2})
	var from runtime.MemStats
	jobs := 0
	for inst := int64(1); inst <= 12; inst++ {
		n := h.play(inst, nil)
		switch {
		case inst == 4:
			from = postGCMemStats()
		case inst > 4:
			jobs += n
		}
	}
	to := postGCMemStats()
	runtime.KeepAlive(h)
	perJob := (float64(to.HeapInuse) - float64(from.HeapInuse)) / float64(jobs)
	t.Logf("post-GC HeapInuse %.1f → %.1f MB (HeapAlloc %.1f → %.1f MB) over %d jobs: %.1f KB per job",
		float64(from.HeapInuse)/(1<<20), float64(to.HeapInuse)/(1<<20),
		float64(from.HeapAlloc)/(1<<20), float64(to.HeapAlloc)/(1<<20), jobs, perJob/1024)
	if perJob > maxHeapPerJob {
		t.Errorf("retained heap grows %.1f KB per job, want ≤ %d KB", perJob/1024, maxHeapPerJob>>10)
	}
}

// TestHeldResultsHeap plays a recurring workload of 400 templates and
// bounds what holding one reuse instance's job outputs costs in post-GC
// HeapInuse over dropping them.
func TestHeldResultsHeap(t *testing.T) {
	h := newHeapWorkload(t, 400)
	h.play(0, nil)
	h.svc.RunAnalyzer(analyzer.Config{MinFrequency: 2})
	h.play(1, nil)
	var held []map[string][]data.Row
	h.play(2, func(res *JobResult) { held = append(held, res.Result.Outputs) })
	n := len(held)
	holding := postGCMemStats()
	runtime.KeepAlive(held)
	dropped := postGCMemStats()
	runtime.KeepAlive(h)
	cost := float64(holding.HeapInuse) - float64(dropped.HeapInuse)
	t.Logf("holding %d jobs' outputs: post-GC HeapInuse %.1f MB, dropped %.1f MB: %.1f MB held (HeapAlloc %.1f MB)",
		n, float64(holding.HeapInuse)/(1<<20), float64(dropped.HeapInuse)/(1<<20), cost/(1<<20),
		(float64(holding.HeapAlloc)-float64(dropped.HeapAlloc))/(1<<20))
	if cost > maxHeldResultsHeap {
		t.Errorf("holding one instance's outputs costs %.1f MB, want ≤ %d MB", cost/(1<<20), maxHeldResultsHeap>>20)
	}
}
