package main

// seam.go holds every call the benchmark makes into cloudviews/internal.
// The other files see only the types and functions declared here, so a
// change to the program's surface is met in one place. It uses the
// surface ROADMAP keeps: Service.Run / RunBatch / Snapshot / RunAnalyzer /
// BeginInstance and the ctx-first Executor.RunCtx, Store.WriteCtx and
// Store.ConsumeCtx (seam_test.go scans for the identifiers items 2 and 4
// delete).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/data/colenc"
	"cloudviews/internal/exec"
	"cloudviews/internal/expr"
	"cloudviews/internal/metadata"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// Opaque handles: the rest of the benchmark passes these around and never
// looks inside.
type (
	service       = core.Service
	analysis      = analyzer.Analysis
	obsBatch      = []workload.Observation
	catalogHandle = *catalog.Catalog
)

// job is one submission the harness replays.
type job struct{ spec core.JobSpec }

// jobClass splits jobs the way the paper does: builders pay for a
// materialization, reusers benefit from one, plain jobs do neither.
type jobClass int

const (
	classPlain jobClass = iota
	classReuse
	classBuild
)

// outcome is what the harness keeps of one finished job.
type outcome struct {
	used, built, rejected int
	cpu                   float64 // simulated Result.TotalCPU
	rows                  int64   // rows produced by all operators
	retries               int
	digest                uint64 // order-independent hash of every output sink
	viewBytes             int64  // Σ View.Bytes of the views this job wrote
	viewLogical           int64  // Σ View.LogicalBytes of the same views
	// anyOrder marks a job whose executed plan reads a view below a Top.
	// Top keeps the first N rows in physical order, and a view's physical
	// design orders ties differently from the subplan it replaces, so the
	// job has several right answers and the oracle cannot compare rows.
	anyOrder bool
	outputs  map[string][]data.Row
}

// add accumulates another job's tallies (a total has no outputs).
func (o *outcome) add(j outcome) {
	o.used += j.used
	o.built += j.built
	o.rejected += j.rejected
	o.cpu += j.cpu
	o.rows += j.rows
	o.retries += j.retries
	o.digest += j.digest
	o.viewBytes += j.viewBytes
	o.viewLogical += j.viewLogical
}

func (o outcome) class() jobClass {
	switch {
	case o.built > 0:
		return classBuild
	case o.used > 0:
		return classReuse
	}
	return classPlain
}

func summarize(st *storage.Store, executed *plan.Node, res *exec.Result, dec *optimizer.Decision) outcome {
	o := outcome{
		used: len(dec.ViewsUsed), built: len(dec.ViewsBuilt), rejected: len(dec.ViewsRejected),
		cpu: res.TotalCPU, retries: res.Retries, outputs: res.Outputs,
	}
	if o.used > 0 {
		// Post-order walk: a node's children are settled before it is.
		readsView := map[*plan.Node]bool{}
		plan.Walk(executed, func(n *plan.Node) {
			below := n.Kind == plan.OpViewScan
			for _, c := range n.Children {
				below = below || readsView[c]
			}
			readsView[n] = below
			if n.Kind == plan.OpTop && below {
				o.anyOrder = true
			}
		})
	}
	for _, ns := range res.NodeStats {
		o.rows += ns.Rows
	}
	for name, rows := range res.Outputs {
		h := signature.Hash64(name)
		for _, r := range rows {
			h += r.Hash64()
		}
		o.digest += h * 0x9e3779b97f4a7c15
	}
	for _, p := range res.MaterializedPaths {
		if v, err := st.Get(p); err == nil {
			o.viewBytes += v.Bytes
			o.viewLogical += v.LogicalBytes
		}
	}
	return o
}

// sameOutputs is the oracle comparison: every sink equal as a multiset,
// by data.RowsEqual. Equal digests settle it first: the digest hashes kind
// and bits of every value, so it is the stricter of the two, and RowsEqual
// (which renders and sorts every row) costs more than the jobs it checks.
func sameOutputs(a, b outcome) bool {
	if a.digest == b.digest {
		return true
	}
	if len(a.outputs) != len(b.outputs) {
		return false
	}
	for name, rows := range a.outputs {
		other, ok := b.outputs[name]
		if !ok || !data.RowsEqual(rows, other) {
			return false
		}
	}
	return true
}

// tagsFor spells out the metadata lookup keys Service.Run would derive, so
// the staged pipeline and Service.Run look up with the same keys.
func tagsFor(root *plan.Node, templateID string) []string {
	return append(plan.Inputs(root), templateID)
}

// ---- workload generation ----

// profileSeed fixes the script population of the recurring workloads. The
// templates are part of a workload's definition, like TPC-DS's 99 queries;
// --seed drives the data every instance delivers. (Letting the seed pick
// the templates too moved sim_cpu_saved_pct between 17 % and 41 % and
// job_ms_p50 by ±15 % from seed to seed, which no bound could hold.)
const profileSeed = 11

type recurring struct{ w *workgen.Workload }

func genRecurring(templates, rows int, seed int64) *recurring {
	p := workgen.DefaultProfile("bench", profileSeed)
	p.Templates = templates
	p.RowsPerInput = rows
	w := workgen.Generate(p)
	// DeliverInstance draws rows from Profile.Seed; Generate has already
	// drawn the templates, so from here on the seed only shapes data.
	w.Profile.Seed = seed
	w.DeliverInstance(0)
	return &recurring{w: w}
}

func (r *recurring) catalog() *catalog.Catalog { return r.w.Catalog }

func (r *recurring) deliver(i int64) { r.w.DeliverInstance(i) }

// jobs instantiates instance i's submissions against the data delivered
// last, in submission order.
func (r *recurring) jobs(i int64) []job {
	js := r.w.JobsForInstance(i)
	out := make([]job, len(js))
	for k, j := range js {
		out[k] = job{spec: core.JobSpec{Meta: j.Meta, Root: j.Root, Tags: tagsFor(j.Root, j.Meta.TemplateID)}}
	}
	return out
}

// synthetic returns at least minObs observations of whole instances
// 0..n-1 (real signatures, drawn statistics, nothing executed) and n.
func (r *recurring) synthetic(minObs int) (obsBatch, int64) {
	obs := r.w.SyntheticUntil(minObs)
	var n int64
	for i := range obs {
		if in := obs[i].Job.Instance + 1; in > n {
			n = in
		}
	}
	return obs, n
}

func (r *recurring) probeTables() kernelTables {
	return kernelTables{fact: "bu0_stream0", key: "key", dim: "bu0_dim"}
}

type tpcdsSet struct {
	cat  *catalog.Catalog
	jobs []job
}

func genTPCDS(scale float64, seed int64) *tpcdsSet {
	cat := tpcds.Generate(scale, seed)
	qs := (&tpcds.Builder{Cat: cat}).Queries()
	set := &tpcdsSet{cat: cat, jobs: make([]job, len(qs))}
	for i, q := range qs {
		meta := workload.JobMeta{
			JobID: q.Name, Cluster: "tpcds", BusinessUnit: "tpcds",
			VC: "tpcds_vc", User: "bench", TemplateID: q.Name, Period: 1,
		}
		set.jobs[i] = job{spec: core.JobSpec{Meta: meta, Root: q.Root, Tags: tagsFor(q.Root, q.Name)}}
	}
	return set
}

func (*tpcdsSet) probeTables() kernelTables {
	return kernelTables{fact: "store_sales", key: "ss_item_sk", dim: "item"}
}

// ---- the service ----

// openService builds a service over cat. cacheBytes follows
// Config.CacheBytes (0 default budget, negative off); observer=false
// strips the observability layer, the baseline obs.* metrics subtract.
func openService(cat *catalog.Catalog, reuse bool, cacheBytes int64, observer bool) *service {
	svc := core.NewService(cat, core.Config{Enabled: reuse, CacheBytes: cacheBytes})
	if !observer {
		svc.SetObserver(nil)
	}
	return svc
}

func beginInstance(svc *service, i int64) { svc.BeginInstance(i) }

func appendObservations(svc *service, obs obsBatch) { svc.Repo.Append(obs...) }

func installAnalysis(svc *service, an *analysis) { svc.Meta.LoadAnalysis(an.Annotations) }

func annotationCount(an *analysis) int { return len(an.Annotations) }

// runJob is one closed-loop submission: the wall clock brackets
// Service.Run and nothing else.
func runJob(ctx context.Context, svc *service, j job) (outcome, time.Duration, error) {
	t := time.Now()
	r, err := svc.Run(ctx, j.spec)
	wall := time.Since(t)
	if err != nil {
		return outcome{}, wall, err
	}
	return summarize(svc.Store, r.Plan, r.Result, r.Decision), wall, nil
}

// runBatch submits jobs as one RunBatch with the given client count and
// returns per-index outcomes (zero for failed jobs), the batch wall and
// the number of failed jobs.
func runBatch(ctx context.Context, svc *service, jobs []job, clients int) ([]outcome, time.Duration, int) {
	specs := make([]core.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	t := time.Now()
	rs, _ := svc.RunBatch(ctx, specs, core.BatchOptions{Concurrency: clients})
	wall := time.Since(t)
	outs := make([]outcome, len(jobs))
	failed := 0
	for i, r := range rs {
		if r == nil {
			failed++
			continue
		}
		outs[i] = summarize(svc.Store, r.Plan, r.Result, r.Decision)
	}
	return outs, wall, failed
}

// runStaged drives one job through the same public calls
// core.Service.submitJob makes — lookup, optimize, execute with the
// publication hook, clock, record — with one span around each. What it
// leaves out (admission, breakers, lifecycle errors, the service's own
// trace building) is what core.overhead_us_p50 measures.
func runStaged(ctx context.Context, svc *service, j job, rec *recorder, id int) (outcome, time.Duration, error) {
	spec := j.spec
	t := time.Now()
	root := rec.begin("job", -1, id)
	now := svc.Clock.Now()

	sp := rec.begin("metadata.lookup", root, id)
	anns, err := svc.Meta.TryRelevantViews(spec.Meta.VC, spec.Tags)
	rec.end(sp)
	if err != nil {
		return outcome{}, time.Since(t), err
	}

	sp = rec.begin("optimizer.optimize", root, id)
	p, dec := svc.Opt.Optimize(spec.Root, spec.Meta.JobID, anns, now)
	rec.end(sp)

	intents := make(map[string]optimizer.BuildIntent, len(dec.ViewsBuilt))
	for _, b := range dec.ViewsBuilt {
		intents[b.PreciseSig] = b
	}
	// The hook runs on executor goroutines; it keeps its own intervals and
	// the spans are added once the executor has joined.
	type interval struct{ start, end time.Time }
	var (
		mu        sync.Mutex
		sealed    = map[string]bool{}
		publishes []interval
	)
	ex := *svc.Exec
	ex.OnViewMaterialized = func(v *storage.View) {
		intent, ok := intents[v.PreciseSig]
		if !ok {
			return
		}
		v.ExpiresAt = spec.Meta.Instance + intent.ExpiryDelta
		s := time.Now()
		svc.Meta.ReportMaterialized(metadata.ViewInfo{
			PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
			Schema: v.Schema, Props: v.Props, Rows: v.Rows,
			Bytes: v.LogicalBytes, EncodedBytes: v.Bytes,
			ProducerJobID: spec.Meta.JobID, ExpiresAt: v.ExpiresAt,
		})
		e := time.Now()
		mu.Lock()
		sealed[v.PreciseSig] = true
		publishes = append(publishes, interval{s, e})
		mu.Unlock()
	}

	sp = rec.begin("exec.run", root, id)
	res, err := ex.RunCtx(ctx, p, spec.Meta.JobID, now, 0)
	rec.end(sp)
	for _, iv := range publishes {
		rec.add("metadata.publish", sp, id, iv.start, iv.end)
	}
	// Locks for views that never sealed (a failed job, or a build race
	// lost to another client) are released, as Service.execute does.
	kept := dec.ViewsBuilt[:0]
	for _, b := range dec.ViewsBuilt {
		if sealed[b.PreciseSig] {
			kept = append(kept, b)
		} else {
			svc.Meta.AbortMaterialize(b.PreciseSig, spec.Meta.JobID)
		}
	}
	dec.ViewsBuilt = kept
	if err != nil {
		return outcome{}, time.Since(t), err
	}
	svc.Clock.AdvanceTo(now + int64(res.Latency) + 1)

	sp = rec.begin("workload.record", root, id)
	svc.Repo.Record(spec.Meta, p, res)
	rec.end(sp)
	rec.end(root)
	return summarize(svc.Store, p, res, dec), time.Since(t), nil
}

// ---- the analyzer ----

// mineConfig is the subset of the analyzer's knobs the workloads set.
type mineConfig struct {
	minFrequency int
	minCostRatio float64
	maxPerJob    int
	topK         int
}

// mined is what the harness keeps of one analysis.
type mined struct {
	an                   *analysis
	wall                 time.Duration
	subgraphs            int // observations the run mined
	candidates, selected int
	allocBytes           uint64
	digest               uint64 // over Selected: signature and utility, in order
}

func (c mineConfig) config(from, to int64) analyzer.Config {
	return analyzer.Config{
		WindowFrom: from, WindowTo: to,
		MinFrequency: c.minFrequency, MinCostRatio: c.minCostRatio,
		MaxPerJob: c.maxPerJob, TopK: c.topK,
	}
}

func minedOf(an *analysis, wall time.Duration, alloc uint64) mined {
	m := mined{wall: wall, subgraphs: an.TotalSubgraphs,
		candidates: len(an.Candidates), selected: len(an.Selected), allocBytes: alloc}
	for _, c := range an.Selected {
		m.digest = (m.digest ^ signature.Hash64(c.NormSig) ^ math.Float64bits(c.Utility)) * 0x9e3779b97f4a7c15
	}
	return m
}

// remine runs the analyzer over the service's own repository, window
// [from, to] (0, 0 = everything), and installs the annotations.
func remine(svc *service, c mineConfig, from, to int64) mined {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	an := svc.RunAnalyzer(c.config(from, to))
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	return minedOf(an, wall, after.TotalAlloc-before.TotalAlloc)
}

// mineOnly analyzes the service's repository, whole window, batch times
// back to back without installing anything; wall and allocBytes are per
// analysis.
func mineOnly(svc *service, c mineConfig, batch int) (*analysis, mined) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	var an *analysis
	for i := 0; i < batch; i++ {
		an = analyzer.New(svc.Repo).Analyze(c.config(0, 0))
	}
	wall := time.Since(t) / time.Duration(batch)
	runtime.ReadMemStats(&after)
	return an, minedOf(an, wall, (after.TotalAlloc-before.TotalAlloc)/uint64(batch))
}

// ---- counters read from outside ----

// counters is the slice of Service.Snapshot and the metadata service's
// own tallies the per-layer metrics report.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions int64
	residentBytes                          int64
	views                                  int
	lookups, proposals                     int64
	annotationsServed                      int64
	observations                           int
}

func readCounters(svc *service) counters {
	snap := svc.Snapshot()
	c := counters{
		cacheHits: snap.Storage.Cache.Hits, cacheMisses: snap.Storage.Cache.Misses,
		cacheEvictions: snap.Storage.Cache.Evictions,
		residentBytes:  snap.Storage.ResidentEncodedBytes, views: snap.Storage.Views,
		annotationsServed: snap.Metrics.Counters["meta.annotations_served"],
		observations:      len(svc.Repo.Snapshot()),
	}
	_, _, _, c.lookups, c.proposals = svc.Meta.Stats()
	return c
}

// ---- probes: one layer at a time, on the workload's own plans and views ----

// probeSignature times AllSubgraphs over each job's plan and reports the
// per-call microseconds and mean allocations per call.
func probeSignature(jobs []job) (us []float64, allocsPerCall float64) {
	if len(jobs) == 0 {
		return nil, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, j := range jobs {
		t := time.Now()
		signature.NewComputer().AllSubgraphs(j.spec.Root)
		us = append(us, float64(time.Since(t))/1e3)
	}
	runtime.ReadMemStats(&after)
	return us, float64(after.Mallocs-before.Mallocs) / float64(len(jobs))
}

// storageProbe accumulates isolated storage and codec timings over the
// views a service holds.
type storageProbe struct {
	views                       int
	logicalBytes, encodedBytes  int64
	write, cold, encode, decode time.Duration
	hotNs                       []float64
}

// probeStorage measures, for up to limit views of svc in path order:
// colenc.Decode and Encode per partition, WriteCtx of the decoded rows
// into a scratch store, a cold ConsumeCtx (verify + decode) and a second,
// hot one. The scratch store gets the workload's cache budget, so with the
// cache off the "hot" consume decodes again. svc itself is only read.
func probeStorage(ctx context.Context, svc *service, cacheBytes int64, limit int, into *storageProbe) error {
	views := svc.Store.Views()
	sort.Slice(views, func(i, j int) bool { return views[i].Path < views[j].Path })
	if len(views) > limit {
		views = views[:limit]
	}
	scratch := storage.NewStore()
	if cacheBytes != 0 {
		scratch.SetCacheBudget(cacheBytes)
	}
	for _, v := range views {
		parts := make([][]data.Row, len(v.Encoded))
		t := time.Now()
		for i, blk := range v.Encoded {
			rows, err := colenc.Decode(blk)
			if err != nil {
				return fmt.Errorf("probe decode %s: %w", v.Path, err)
			}
			parts[i] = rows
		}
		into.decode += time.Since(t)

		t = time.Now()
		for _, rows := range parts {
			if _, err := colenc.Encode(rows); err != nil {
				return fmt.Errorf("probe encode %s: %w", v.Path, err)
			}
		}
		into.encode += time.Since(t)

		cp := &storage.View{Path: v.Path, PreciseSig: v.PreciseSig, NormSig: v.NormSig,
			ProducerJobID: v.ProducerJobID, ExpiresAt: v.ExpiresAt, Schema: v.Schema, Props: v.Props}
		t = time.Now()
		if _, err := scratch.WriteCtx(ctx, cp, parts); err != nil {
			return fmt.Errorf("probe write %s: %w", v.Path, err)
		}
		into.write += time.Since(t)

		t = time.Now()
		if _, _, err := scratch.ConsumeCtx(ctx, v.Path); err != nil {
			return fmt.Errorf("probe cold consume %s: %w", v.Path, err)
		}
		into.cold += time.Since(t)

		t = time.Now()
		if _, _, err := scratch.ConsumeCtx(ctx, v.Path); err != nil {
			return fmt.Errorf("probe hot consume %s: %w", v.Path, err)
		}
		into.hotNs = append(into.hotNs, float64(time.Since(t)))

		into.views++
		into.logicalBytes += v.LogicalBytes
		into.encodedBytes += v.Bytes
	}
	return nil
}

// kernelTables names the tables the kernel probes run over: a fact table,
// its integer join/group key, and a dimension keyed by its first column.
type kernelTables struct{ fact, key, dim string }

// probeKernels runs one single-operator plan per kernel over the
// workload's own tables through Executor.RunCtx, reps times each, and
// returns the median milliseconds by kernel name. The scan under each
// operator aliases the table's partitions and costs next to nothing.
func probeKernels(ctx context.Context, cat *catalog.Catalog, kt kernelTables, reps int) (map[string]float64, error) {
	fact, err := cat.Get(kt.fact)
	if err != nil {
		return nil, err
	}
	dim, err := cat.Get(kt.dim)
	if err != nil {
		return nil, err
	}
	key := fact.Schema.ColumnIndex(kt.key)
	num := -1
	for i, c := range fact.Schema {
		if c.Kind == data.KindFloat {
			num = i
			break
		}
	}
	if key < 0 || num < 0 {
		return nil, fmt.Errorf("probe kernels: %s lacks key %q or a float column", kt.fact, kt.key)
	}
	scan := func() *plan.Node { return plan.Scan(fact.Name, fact.GUID, fact.Schema) }
	plans := map[string]*plan.Node{
		"filter":   scan().Filter(expr.B(expr.OpLt, expr.C(num, fact.Schema[num].Name), expr.Lit(data.Float(500)))),
		"project":  scan().ProjectCols(key, num),
		"exchange": scan().ShuffleHash([]int{key}, 16),
		"hashagg":  scan().HashAgg([]int{key}, []plan.AggSpec{{Fn: plan.AggCount, Col: key}, {Fn: plan.AggSum, Col: num}}),
		"hashjoin": scan().HashJoin(plan.Scan(dim.Name, dim.GUID, dim.Schema), []int{key}, []int{0}),
		"sort":     scan().Sort([]int{key}, []bool{false}),
	}
	ex := exec.Executor{Catalog: cat, Store: storage.NewStore()}
	out := make(map[string]float64, len(plans))
	for name, p := range plans {
		root := p.Output("probe")
		ms := make([]float64, reps)
		for i := range ms {
			t := time.Now()
			if _, err := ex.RunCtx(ctx, root, "probe-"+name, 0, 0); err != nil {
				return nil, fmt.Errorf("probe kernel %s: %w", name, err)
			}
			ms[i] = float64(time.Since(t)) / 1e6
		}
		out[name] = median(ms)
	}
	return out, nil
}

// errJobFailed wraps a job error with the job it belongs to.
func errJobFailed(j job, err error) error {
	return fmt.Errorf("job %s: %w", j.spec.Meta.JobID, err)
}

var errNoViews = errors.New("the analyzer selected no views")
