package main

import (
	"context"
	"fmt"
	"runtime"
)

// layerMetrics fills in the per-layer metrics of a traced run. Stage
// timings come from the spans the "staged" lane recorded around its calls
// into each layer; differences (core, obs, tracing) are taken between
// lanes; storage, codec, signature and kernel numbers come from probes
// that exercise one layer alone on the workload's own plans and views.
// A timing nothing sampled reads 0 with 0 samples.
func (r *runner) layerMetrics(ctx context.Context, rep *report) error {
	d := r.def
	run, staged, noObs, bare := r.lanes[0], r.lanes[1], r.lanes[2], r.lanes[3]
	put := func(name string, v float64, unit string, n int) {
		rep.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: n}
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	spans := mergeSpans(staged.recs)
	st := summarizeSpans(spans)
	var classes []jobClass
	for _, rl := range staged.rounds {
		classes = append(classes, rl.classes...)
	}
	// byClass splits a span name's durations by the class of its job.
	byClass := func(name string, scale float64) (all []float64, per [3][]float64) {
		for i, ns := range st.byName[name] {
			v := ns / scale
			all = append(all, v)
			c := classes[st.jobOf[name][i]]
			per[c] = append(per[c], v)
		}
		return all, per
	}

	// signature
	put("signature.all_subgraphs_us_p50", p50(r.sigUs), "us", len(r.sigUs))
	put("signature.allocs_per_call", p50(r.sigAllocs), "count", len(r.sigUs))

	// metadata
	lookups, _ := byClass("metadata.lookup", 1e3)
	publishes, _ := byClass("metadata.publish", 1e3)
	put("metadata.lookup_us_p50", p50(lookups), "us", len(lookups))
	put("metadata.publish_us_p50", p50(publishes), "us", len(publishes))
	served := float64(staged.tally.annotationsServed)
	put("metadata.annotations_per_lookup", ratio(served, float64(staged.tally.lookups)), "ratio", int(staged.tally.lookups))
	put("metadata.used_per_served", ratio(float64(staged.total.used+staged.total.built), served), "ratio", int(served))
	put("metadata.lookups", float64(staged.tally.lookups), "count", 0)
	put("metadata.proposals", float64(staged.tally.proposals), "count", 0)

	// optimizer
	_, opt := byClass("optimizer.optimize", 1e3)
	put("optimizer.optimize_us_p50.plain", p50(opt[classPlain]), "us", len(opt[classPlain]))
	put("optimizer.optimize_us_p50.use", p50(opt[classReuse]), "us", len(opt[classReuse]))
	put("optimizer.optimize_us_p50.build", p50(opt[classBuild]), "us", len(opt[classBuild]))
	put("optimizer.views_used", float64(staged.total.used), "count", 0)
	put("optimizer.views_built", float64(staged.total.built), "count", 0)
	put("optimizer.views_rejected", float64(staged.total.rejected), "count", 0)
	put("optimizer.reuse_job_share", ratio(float64(staged.reuseJobs), float64(staged.jobs)), "ratio", staged.jobs)

	// exec
	execAll, execBy := byClass("exec.run", 1e6)
	put("exec.run_ms_p50", p50(execAll), "ms", len(execAll))
	p95 := 0.0
	if len(execAll) > 0 {
		p95 = percentile(sorted(execAll), 0.95)
	}
	put("exec.run_ms_p95", p95, "ms", len(execAll))
	put("exec.run_ms_p50.build", p50(execBy[classBuild]), "ms", len(execBy[classBuild]))
	put("exec.run_ms_p50.reuse", p50(execBy[classReuse]), "ms", len(execBy[classReuse]))
	put("exec.run_ms_p50.plain", p50(execBy[classPlain]), "ms", len(execBy[classPlain]))
	execNs := sum(st.byName["exec.run"])
	put("exec.rows_per_s", ratio(float64(staged.total.rows), execNs/1e9), "rows/s", len(execAll))
	put("exec.share_of_job", ratio(execNs, st.jobTotal), "ratio", len(execAll))
	put("exec.retries", float64(staged.total.retries), "count", 0)
	const kernelReps = 9
	kernels, err := probeKernels(ctx, r.cat, r.tables, kernelReps)
	if err != nil {
		return err
	}
	for _, k := range []string{"filter", "project", "exchange", "hashagg", "hashjoin", "sort"} {
		put("exec.kernel_ms."+k, kernels[k], "ms", kernelReps)
	}

	// storage and codec, on the views the "run" lane holds
	sp := r.store
	mb := float64(sp.logicalBytes) / 1e6
	put("storage.write_mb_s", ratio(mb, sp.write.Seconds()), "MB/s", sp.views)
	put("storage.consume_cold_mb_s", ratio(mb, sp.cold.Seconds()), "MB/s", sp.views)
	put("storage.consume_hot_ns", p50(sp.hotNs), "ns", len(sp.hotNs))
	reads := run.tally.cacheHits + run.tally.cacheMisses
	put("storage.cache_hit_rate", ratio(float64(run.tally.cacheHits), float64(reads)), "ratio", int(reads))
	put("storage.cache_evictions", float64(run.tally.cacheEvictions), "count", 0)
	put("storage.resident_mb", float64(run.tally.residentBytes)/1e6, "MB", 0)
	put("storage.views", float64(run.tally.views), "count", 0)
	put("colenc.encode_mb_s", ratio(mb, sp.encode.Seconds()), "MB/s", sp.views)
	put("colenc.decode_mb_s", ratio(mb, sp.decode.Seconds()), "MB/s", sp.views)
	put("colenc.ratio", ratio(float64(sp.encodedBytes), float64(sp.logicalBytes)), "ratio", sp.views)

	// workload repository
	records, _ := byClass("workload.record", 1e3)
	put("workload.record_us_p50", p50(records), "us", len(records))
	put("workload.observations", float64(staged.tally.observations), "count", 0)

	// analyzer: the re-mines in the loop where the workload has them,
	// else the samples over its log
	analyses := run.mines
	if len(analyses) == 0 {
		analyses = r.analyses
	}
	var subgraphs, candidates, selected, allocMB, wallS float64
	for _, m := range analyses {
		subgraphs += float64(m.subgraphs)
		candidates += float64(m.candidates)
		selected += float64(m.selected)
		allocMB += float64(m.allocBytes) / 1e6
		wallS += m.wall.Seconds()
	}
	runs := float64(len(analyses))
	put("analyzer.analyze_ms_p50", p50(analyzeMs(analyses)), "ms", len(analyses))
	put("analyzer.obs_per_s", ratio(subgraphs, wallS), "obs/s", len(analyses))
	put("analyzer.alloc_mb_per_run", ratio(allocMB, runs), "MB", len(analyses))
	put("analyzer.candidates", ratio(candidates, runs), "count", len(analyses))
	put("analyzer.selected", ratio(selected, runs), "count", len(analyses))

	// core, obs and the cost of the spans themselves: lane against lane,
	// job by job. Every lane ran the same job in the same round, so the
	// median of the per-job differences cancels what the job itself costs
	// and most of what the host was doing at the time.
	put("core.overhead_us_p50", p50(pairedDiffs(run, bare))*1e3, "us", run.jobs)
	put("core.begin_instance_ms_p50", p50(run.beginMs), "ms", len(run.beginMs))
	put("core.alloc_kb_per_job", ratio(float64(run.allocBytes)/1e3, float64(run.jobs)), "KB", run.jobs)
	put("core.mallocs_per_job", ratio(float64(run.mallocs), float64(run.jobs)), "count", run.jobs)
	var plainMs, onMs float64
	for _, rl := range run.rounds {
		if rl.oracle {
			onMs += sum(rl.walls)
		}
	}
	for _, rl := range r.plain.rounds {
		plainMs += sum(rl.walls)
	}
	put("core.wall_speedup_vs_baseline", ratio(plainMs, onMs), "ratio", r.plain.jobs)
	partsRatio := ratio(st.partsTotal, st.jobTotal)
	put("core.parts_sum_ratio", partsRatio, "ratio", len(st.byName["job"]))
	put("core.trace_overhead_pct", ratio(p50(pairedDiffs(staged, bare)), p50(bare.walls()))*100, "%", staged.jobs)
	put("obs.overhead_us_per_job", p50(pairedDiffs(run, noObs))*1e3, "us", run.jobs)
	put("obs.allocs_per_job", ratio(float64(run.mallocs), float64(run.jobs))-ratio(float64(noObs.mallocs), float64(noObs.jobs)), "count", run.jobs)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	put("core.gc_pause_ms_total", float64(m.PauseTotalNs)/1e6, "ms", int(m.NumGC))
	put("core.peak_heap_mb", float64(max(r.peakHeap, m.HeapInuse))/1e6, "MB", 0)

	// The stages must add back up to the job, or the split is not one.
	if partsRatio < 0.97 || partsRatio > 1.03 {
		rep.Failed++
		r.problem("core.parts_sum_ratio %.4f outside 0.97–1.03", partsRatio)
	}

	path, err := writeTrace(r.o.outDir, traceFile{Workload: d.name, Seed: r.o.seed, Spans: spans})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.TraceFile = path
	return nil
}

// pairedDiffs returns a's wall minus b's, in milliseconds, for every job
// both lanes timed.
func pairedDiffs(a, b *lane) []float64 {
	var out []float64
	for i, ra := range a.rounds {
		rb := b.rounds[i]
		for k := range ra.walls {
			out = append(out, ra.walls[k]-rb.walls[k])
		}
	}
	return out
}
