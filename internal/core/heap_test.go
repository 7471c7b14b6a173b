package core

import (
	"context"
	"runtime"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/workgen"
)

// maxHeapPerJob bounds how much live heap each job may leave behind once
// its result is dropped. What a job must keep is its subgraph observations
// in the workload repository; its plan, statistics and outputs must go.
const maxHeapPerJob = 13 << 10

// TestRetainedHeapPerJob plays a recurring workload for twelve instances,
// dropping every result, and bounds the post-GC heap growth per job over
// instances 5–12: the service's own retained state, with nothing held by
// the caller.
func TestRetainedHeapPerJob(t *testing.T) {
	p := workgen.DefaultProfile("heap", 11)
	p.Templates = 100
	p.RowsPerInput = 64
	w := workgen.Generate(p)
	svc := NewService(w.Catalog, Config{Enabled: true})

	play := func(inst int64) int {
		if inst > 0 {
			w.DeliverInstance(inst)
		}
		svc.BeginInstance(inst)
		jobs := w.JobsForInstance(inst)
		for _, j := range jobs {
			if _, err := svc.Run(context.Background(), JobSpec{Meta: j.Meta, Root: j.Root}); err != nil {
				t.Fatalf("instance %d job %s: %v", inst, j.Meta.JobID, err)
			}
		}
		return len(jobs)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	play(0)
	svc.RunAnalyzer(analyzer.Config{MinFrequency: 2})
	var from uint64
	jobs := 0
	for inst := int64(1); inst <= 12; inst++ {
		n := play(inst)
		switch {
		case inst == 4:
			from = heapInuse()
		case inst > 4:
			jobs += n
		}
	}
	to := heapInuse()
	runtime.KeepAlive(svc)
	runtime.KeepAlive(w)
	perJob := (float64(to) - float64(from)) / float64(jobs)
	t.Logf("post-GC heap %.1f → %.1f MB over %d jobs: %.1f KB per job",
		float64(from)/(1<<20), float64(to)/(1<<20), jobs, perJob/1024)
	if perJob > maxHeapPerJob {
		t.Errorf("retained heap grows %.1f KB per job, want ≤ %d KB", perJob/1024, maxHeapPerJob>>10)
	}
}
