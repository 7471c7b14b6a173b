package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"time"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/workgen"
)

// OverheadResult reports the §7.3 overhead measurements.
type OverheadResult struct {
	// Analyzer throughput over a generated history.
	AnalyzerJobs      int
	AnalyzerSubgraphs int
	AnalyzerWall      time.Duration

	// Metadata lookup latency over the HTTP front end.
	LookupAvg1Thread  time.Duration
	LookupAvg5Threads time.Duration
	Lookups           int

	// Optimizer wall time per job: plain (no annotations), when creating
	// a materialized view, and when consuming one. The paper observed
	// +28% when creating and −17% when consuming relative to plain.
	OptimizePlain  time.Duration
	OptimizeCreate time.Duration
	OptimizeUse    time.Duration
}

// RunOverheads measures all three §7.3 overheads on a generated workload.
func RunOverheads(seed int64) (*OverheadResult, error) {
	p := workgen.DefaultProfile("overheads", seed)
	p.Templates = 150
	w := workgen.Generate(p)
	repo, err := RunWorkload(w, 0)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{AnalyzerJobs: repo.NumJobs(), AnalyzerSubgraphs: len(repo.Snapshot())}

	// 1. Analyzer wall time.
	start := time.Now()
	an := analyzer.New(repo).Analyze(analyzer.Config{MinFrequency: 2, TopK: 20})
	res.AnalyzerWall = time.Since(start)

	// 2. Metadata service lookup latency over HTTP, 1 vs 5 client threads.
	svc := metadata.NewService()
	svc.LoadAnalysis(an.Annotations)
	srv := httptest.NewServer(metadata.Handler(svc))
	defer srv.Close()
	tags := [][]string{}
	for _, j := range w.JobsForInstance(0) {
		tags = append(tags, append(plan.Inputs(j.Root), j.Meta.TemplateID))
		if len(tags) >= 200 {
			break
		}
	}
	res.Lookups = len(tags)
	if res.LookupAvg1Thread, err = lookupLatency(srv.URL, tags, 1); err != nil {
		return nil, err
	}
	if res.LookupAvg5Threads, err = lookupLatency(srv.URL, tags, 5); err != nil {
		return nil, err
	}

	// 3. Optimizer time: pick a job that contains a selected view.
	res.OptimizePlain, res.OptimizeCreate, res.OptimizeUse, err = optimizerOverheads(w, an)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// lookupLatency measures the mean TryRelevantViews round trip with the
// given client concurrency (the paper's 19 ms single-thread vs 14.3 ms
// with 5 threads — ours are in-process, so absolute values are
// microseconds).
func lookupLatency(url string, tags [][]string, threads int) (time.Duration, error) {
	client := metadata.NewClient(url)
	var wg sync.WaitGroup
	errs := make([]error, threads)
	per := (len(tags) + threads - 1) / threads
	start := time.Now()
	for t := 0; t < threads; t++ {
		lo := t * per
		hi := lo + per
		if hi > len(tags) {
			hi = len(tags)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(t int, batch [][]string) {
			defer wg.Done()
			for _, tg := range batch {
				if _, err := client.TryRelevantViews("bench_vc", tg); err != nil {
					errs[t] = err
					return
				}
			}
		}(t, tags[lo:hi])
	}
	wg.Wait()
	return time.Since(start) / time.Duration(len(tags)), errors.Join(errs...)
}

// optimizerOverheads times Optimize for the three regimes.
func optimizerOverheads(w *workgen.Workload, an *analyzer.Analysis) (plain, create, use time.Duration, err error) {
	if len(an.Selected) == 0 {
		return 0, 0, 0, fmt.Errorf("bench: no views selected")
	}
	// Find a job containing the top view.
	picked := pickRelevant(specsOf(w.JobsForInstance(0)), an.Selected[:1], nil, 1)
	if len(picked) == 0 {
		return 0, 0, 0, fmt.Errorf("bench: no job contains the selected view")
	}
	target := picked[0].spec

	// Best-of-batches timing: the per-call work is microseconds, so GC
	// pauses and scheduler noise dominate a single mean. The minimum
	// batch average is the standard robust estimator here.
	timeIt := func(f func()) time.Duration {
		const batches, iters = 7, 100
		for i := 0; i < 20; i++ {
			f() // warm up
		}
		best := time.Duration(1<<62 - 1)
		for b := 0; b < batches; b++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if d := time.Since(start) / iters; d < best {
				best = d
			}
		}
		return best
	}

	// Plain: the full CloudViews optimization pipeline runs (signature
	// computation, matching, follow-up) but no annotation matches — the
	// common case for a job with no selected overlaps. This is the
	// baseline the paper's ±percentages are measured against.
	svcPlain := core.NewService(w.Catalog, core.Config{Enabled: true})
	noMatch := []metadata.Annotation{{NormSig: "no-such-signature", Tags: []string{"x"}}}
	plain = timeIt(func() {
		svcPlain.Opt.Optimize(target.Root, "plain", noMatch, 0)
	})

	// Create: the annotation matches and nothing is materialized yet, so
	// every Optimize proposes the build lock (re-proposal by the same
	// job succeeds) and wraps the subgraph in a Materialize operator.
	svcCreate := core.NewService(w.Catalog, core.Config{Enabled: true})
	svcCreate.Meta.LoadAnalysis(an.Annotations)
	annsCreate, err := svcCreate.Meta.TryRelevantViews(target.Meta.VC, append(plan.Inputs(target.Root), target.Meta.TemplateID))
	if err != nil {
		return 0, 0, 0, err
	}
	create = timeIt(func() {
		svcCreate.Opt.Optimize(target.Root, "creator", annsCreate, 0)
	})

	// Use: the view exists; every Optimize rewrites the plan to read it,
	// and the remaining passes run over the *smaller* tree (the paper's
	// −17% effect). Only the materialized annotation is loaded so the
	// measurement is pure consumption, not consume-plus-build.
	svcUse := core.NewService(w.Catalog, core.Config{Enabled: true})
	svcUse.Meta.LoadAnalysis(an.Annotations)
	r, err := svcUse.Run(context.Background(), target)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(r.Decision.ViewsBuilt) == 0 {
		return 0, 0, 0, fmt.Errorf("bench: target job built nothing")
	}
	var annsUse []metadata.Annotation
	for _, a := range an.Annotations {
		if a.NormSig == r.Decision.ViewsBuilt[0].NormSig {
			annsUse = append(annsUse, a)
		}
	}
	use = timeIt(func() {
		svcUse.Opt.Optimize(target.Root, "user", annsUse, 1)
	})
	return plain, create, use, nil
}

// Write renders the §7.3 table.
func (r *OverheadResult) Write(w io.Writer) {
	fmt.Fprintf(w, "analyzer: %d jobs, %d subgraphs in %v (%.0f jobs/s)\n",
		r.AnalyzerJobs, r.AnalyzerSubgraphs, r.AnalyzerWall,
		float64(r.AnalyzerJobs)/r.AnalyzerWall.Seconds())
	fmt.Fprintf(w, "metadata lookup: avg %v (1 thread) vs %v (5 threads) over %d lookups\n",
		r.LookupAvg1Thread, r.LookupAvg5Threads, r.Lookups)
	cr := (float64(r.OptimizeCreate)/float64(r.OptimizePlain) - 1) * 100
	ur := (float64(r.OptimizeUse)/float64(r.OptimizePlain) - 1) * 100
	fmt.Fprintf(w, "optimizer: plain %v, creating view %v (%+.0f%%), using view %v (%+.0f%%)\n",
		r.OptimizePlain, r.OptimizeCreate, cr, r.OptimizeUse, ur)
}
