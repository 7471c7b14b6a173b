package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runOptions is one run of one workload.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string // where a traced run writes its span file
	// corruptOracle, when ≥ 0, makes the oracle comparison with that index
	// read as a mismatch. Tests use it to show a wrong answer fails the run.
	corruptOracle int
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is the result of one run. Metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one; Counts holds
// tallies that repeat exactly for a seed on a single client.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Counts    map[string]int64       `json:"counts"`
	Problems  []string               `json:"problems,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// roundLog is what one lane measured in one timed round.
type roundLog struct {
	n       int
	wall    float64    // seconds of timed work: Σ job walls with one client, else first submission to last reply
	walls   []float64  // per-job milliseconds; nil when the round was one RunBatch
	classes []jobClass // parallel to walls
	oracle  bool
}

// lane is one service fed every round's jobs in one way. An untraced run
// has the "run" lane only; a traced run adds three more so that each
// per-layer difference is taken between lanes that saw the same rounds
// under the same host load.
type lane struct {
	name            string
	reuse, observer bool
	staged, spans   bool

	svc  *service
	recs []*recorder // one per client when spans is set
	outs []outcome   // the round in flight

	rounds              []roundLog
	jobs                int // submitted in timed rounds
	mallocs, allocBytes uint64
	beginMs             []float64
	mines               []mined
	tally               counters // summed over a fresh-service workload's rounds
	total               outcome  // summed over every timed job
	reuseJobs           int      // timed jobs that read at least one view
}

type runner struct {
	o     runOptions
	def   workloadDef
	start time.Time

	cat      catalogHandle
	open     func(reuse, observer bool) *service
	deliver  func(round int)       // installs the round's data
	instance func(round int) []job // instantiates the round's jobs, fresh plans each call
	tables   kernelTables
	base     int64 // instance number of round 0
	analysis *analysis
	ref      []outcome // kindTPCDS: the history pass, every round's oracle

	lanes []*lane
	plain *lane

	analyses       []mined // sampleAnalyses' samples (analyze_ms_p50)
	oracleChecks   int
	anyOrder       int // oracle comparisons skipped: a view read below a Top
	mismatches     int
	jobErrors      int
	cpuOn, cpuOff  float64
	timed          time.Duration // Σ timed sections, for setup_s
	problems       []string
	peakHeap       uint64
	sigUs          []float64
	sigAllocs      []float64
	store          storageProbe
	attemptedExtra int
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > r.peakHeap {
		r.peakHeap = m.HeapInuse
	}
	return m
}

// runWorkload replays one workload and returns its report. The error is
// for runs that could not be made at all; failed jobs and wrong answers
// are counted in the report.
func runWorkload(ctx context.Context, o runOptions) (*report, error) {
	start := time.Now()
	def, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	def = def.sized(o)
	if def.batch && runtime.GOMAXPROCS(0) < 2 {
		return nil, fmt.Errorf("%s needs GOMAXPROCS ≥ 2 (have %d): one processor cannot show contention", def.name, runtime.GOMAXPROCS(0))
	}
	r := &runner{o: o, def: def, start: start}
	r.lanes = []*lane{{name: "run", reuse: true, observer: true}}
	if o.trace {
		r.lanes = append(r.lanes,
			&lane{name: "staged", reuse: true, observer: true, staged: true, spans: true},
			&lane{name: "run-noobs", reuse: true},
			&lane{name: "staged-nospans", reuse: true, observer: true, staged: true},
		)
	}
	r.plain = &lane{name: "plain", observer: true}
	for _, l := range r.lanes {
		if l.spans {
			for c := 0; c < def.clients(); c++ {
				l.recs = append(l.recs, newRecorder(start))
			}
		}
	}
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	for round := 1; round <= def.rounds; round++ {
		r.round(ctx, round)
	}
	return r.finish(ctx)
}

// setUp generates the workload, opens the lanes and plays the history.
func (r *runner) setUp(ctx context.Context) error {
	d := r.def
	switch d.kind {
	case kindRecurring, kindMine:
		rec := genRecurring(d.templates, d.rowsPerInput, r.o.seed)
		cat := rec.catalog()
		r.cat = cat
		r.tables = rec.probeTables()
		r.open = func(reuse, observer bool) *service { return openService(cat, reuse, d.cacheBytes, observer) }
		r.deliver = func(round int) {
			if in := r.base + int64(round); in > 0 {
				rec.deliver(in)
			}
		}
		r.instance = func(round int) []job { return rec.jobs(r.base + int64(round)) }
		r.plain.svc = r.open(false, true)
		for _, l := range r.lanes {
			l.svc = r.open(true, l.observer)
		}
		if d.kind == kindRecurring {
			// Round 0: history on every lane, then the first analysis.
			for _, l := range r.lanes {
				beginInstance(l.svc, 0)
				r.play(ctx, l, r.instance(0), 0, 1)
				remine(l.svc, d.mine, 0, 0)
			}
			return nil
		}
		obs, n := rec.synthetic(d.syntheticObs)
		r.base = n - 1
		for _, l := range r.lanes {
			appendObservations(l.svc, obs)
		}
		// The mining phase: the log alone, before any job is served.
		r.sampleAnalyses(r.lanes[0].svc)
		for _, l := range r.lanes {
			installAnalysis(l.svc, r.analysis)
		}
	case kindTPCDS:
		set := genTPCDS(d.scale, r.o.seed)
		r.cat = set.cat
		r.tables = set.probeTables()
		r.open = func(reuse, observer bool) *service { return openService(set.cat, reuse, d.cacheBytes, observer) }
		r.deliver = func(int) {}
		r.instance = func(int) []job { return set.jobs }
		// History: one reuse-off pass, which is also every round's oracle.
		hist := &lane{name: "history", observer: true, svc: r.open(false, true)}
		r.play(ctx, hist, set.jobs, 0, 1)
		r.ref = hist.outs
		r.sampleAnalyses(hist.svc)
	}
	if annotationCount(r.analysis) == 0 {
		return errNoViews
	}
	return nil
}

// sampleAnalyses times the analyzer over the service's repository as it
// stands, whole window, nothing installed: mineRuns samples, each the mean
// of enough back-to-back analyses to last 50 ms, so that a sub-millisecond
// analysis is not timed against the scheduler's jitter. Every analysis of
// the one log must select the same views.
func (r *runner) sampleAnalyses(svc *service) {
	// The analyzer runs offline, apart from the job stream: collect the
	// stream's garbage first, or whether a cycle over the whole heap lands
	// inside a sample is a coin toss.
	runtime.GC()
	an, warm := mineOnly(svc, r.def.mine, 1)
	r.analysis = an
	batch := min(100, max(1, int(math.Ceil(0.050/warm.wall.Seconds()))))
	for i := 0; i < r.def.mineRuns; i++ {
		_, m := mineOnly(svc, r.def.mine, batch)
		r.timed += m.wall * time.Duration(batch)
		r.analyses = append(r.analyses, m)
		if m.digest != warm.digest {
			r.mismatches++
			r.problem("analysis %d selected other views than the first over the same log", i)
		}
	}
	r.attemptedExtra += len(r.analyses)
}

// openRound readies a lane for a round: a recurring service moves to the
// next instance (expired views purged); a TPC-DS lane gets a new service
// with the analysis loaded.
func (r *runner) openRound(l *lane, round int) {
	t := time.Now()
	if r.def.kind == kindTPCDS {
		l.svc = r.open(l.reuse, l.observer)
		if l.reuse {
			installAnalysis(l.svc, r.analysis)
		}
	} else {
		beginInstance(l.svc, r.base+int64(round))
	}
	l.beginMs = append(l.beginMs, ms(time.Since(t)))
}

// play submits one round's jobs to a lane as a closed loop of clients and
// logs per-job walls. round 0 (history) is played but not logged.
func (r *runner) play(ctx context.Context, l *lane, jobs []job, round, clients int) roundLog {
	log := roundLog{n: len(jobs), walls: make([]float64, len(jobs)), classes: make([]jobClass, len(jobs))}
	l.outs = make([]outcome, len(jobs))
	errs := make([]error, len(jobs))
	base := l.jobs
	submit := func(k, client int) {
		var (
			wall time.Duration
			rec  *recorder
		)
		if l.spans && round > 0 {
			rec = l.recs[client]
		}
		if l.staged {
			l.outs[k], wall, errs[k] = runStaged(ctx, l.svc, jobs[k], rec, base+k)
		} else {
			l.outs[k], wall, errs[k] = runJob(ctx, l.svc, jobs[k])
		}
		log.walls[k] = ms(wall)
	}
	before := r.memStats()
	t := time.Now()
	if clients <= 1 {
		for k := range jobs {
			submit(k, 0)
		}
		log.wall = sum(log.walls) / 1e3
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(jobs); k = int(next.Add(1)) - 1 {
					submit(k, c)
				}
			}(c)
		}
		wg.Wait()
		log.wall = time.Since(t).Seconds()
	}
	after := r.memStats()
	for k, err := range errs {
		if err != nil {
			r.jobErrors++
			r.problem("%s lane, round %d: %v", l.name, round, errJobFailed(jobs[k], err))
		}
		log.classes[k] = l.outs[k].class()
	}
	if round > 0 {
		l.mallocs += after.Mallocs - before.Mallocs
		l.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	return log
}

// playBatch submits the round as one RunBatch; there are no per-job walls.
func (r *runner) playBatch(ctx context.Context, l *lane, jobs []job, clients int) roundLog {
	var wall time.Duration
	var failed int
	l.outs, wall, failed = runBatch(ctx, l.svc, jobs, clients)
	if failed > 0 {
		r.jobErrors += failed
		r.problem("%s lane: %d jobs of a RunBatch failed", l.name, failed)
	}
	return roundLog{n: len(jobs), wall: wall.Seconds()}
}

// oracleRound reports whether the round's jobs are also run reuse-off:
// rounds 1, 5, 9, …
func oracleRound(round int) bool { return round%4 == 1 }

// round plays one timed round on every lane, verifies it and re-mines.
func (r *runner) round(ctx context.Context, round int) {
	d := r.def
	r.deliver(round)
	oracle := oracleRound(round)
	var jobs []job
	for n := range r.lanes {
		// The lane that goes first after a delivery pays for what the new
		// tables cache on first scan, so the lanes take turns going first.
		// Every lane gets plans of its own, too: plan nodes memoize state
		// on first touch, and each lane should pay that, as the one lane
		// of an untraced run does.
		i := (n + round) % len(r.lanes)
		l := r.lanes[i]
		jobs = r.instance(round)
		r.openRound(l, round)
		var log roundLog
		// The batch workload alternates: odd rounds are one RunBatch (the
		// throughput a batch submitter sees), even rounds the same client
		// count calling Service.Run (the latency each caller sees). The
		// staged pipeline has no RunBatch, so traced runs use clients only.
		if d.batch && !r.o.trace && round%2 == 1 {
			log = r.playBatch(ctx, l, jobs, d.clients())
		} else {
			log = r.play(ctx, l, jobs, round, d.clients())
		}
		log.oracle = oracle
		l.rounds = append(l.rounds, log)
		l.jobs += len(jobs)
		if i == 0 {
			r.timed += time.Duration(log.wall * float64(time.Second))
		}
		for _, o := range l.outs {
			l.total.add(o)
			if o.used > 0 {
				l.reuseJobs++
			}
		}
	}

	// Oracle: the same specs, reuse off, while this round's data is current.
	ref := r.ref
	if oracle {
		if d.kind == kindTPCDS {
			r.plain.svc = r.open(false, true)
		}
		log := r.play(ctx, r.plain, r.instance(round), round, 1)
		r.plain.rounds = append(r.plain.rounds, log)
		r.plain.jobs += len(jobs)
		r.timed += time.Duration(log.wall * float64(time.Second))
		ref = r.plain.outs
	}
	first := r.lanes[0]
	if ref != nil {
		for k := range jobs {
			if ref[k].outputs == nil || first.outs[k].outputs == nil {
				continue // the job failed and is already counted
			}
			r.cpuOn += first.outs[k].cpu
			r.cpuOff += ref[k].cpu
			if first.outs[k].anyOrder {
				r.anyOrder++
				continue
			}
			same := sameOutputs(first.outs[k], ref[k])
			if r.oracleChecks == r.o.corruptOracle {
				same = false
			}
			r.oracleChecks++
			if !same {
				r.mismatches++
				r.problem("round %d job %d: reuse-on output differs from the reuse-off oracle", round, k)
			}
		}
	}

	// A traced run's lanes must agree with Service.Run job by job: with one
	// client on decisions and outputs; with several, where the winner of a
	// build lock varies, on the outputs of every job that has one right
	// answer on both lanes.
	for _, l := range r.lanes[1:] {
		for k := range jobs {
			a, b := first.outs[k], l.outs[k]
			if d.batch && (a.anyOrder || b.anyOrder) {
				continue
			}
			if a.digest != b.digest || (!d.batch && (a.used != b.used || a.built != b.built || a.rejected != b.rejected)) {
				r.mismatches++
				r.problem("round %d job %d: lane %s disagrees with Service.Run", round, k, l.name)
			}
		}
	}

	if r.o.trace && oracle {
		us, allocs := probeSignature(jobs)
		r.sigUs = append(r.sigUs, us...)
		r.sigAllocs = append(r.sigAllocs, allocs)
		if err := probeStorage(ctx, first.svc, d.cacheBytes, 64, &r.store); err != nil {
			r.mismatches++
			r.problem("%v", err)
		}
	}

	for _, l := range r.lanes {
		if d.kind == kindTPCDS {
			l.tally = l.tally.plus(readCounters(l.svc))
		} else {
			in := r.base + int64(round)
			l.mines = append(l.mines, remine(l.svc, d.mine, in, in))
		}
		l.outs = nil
	}
	r.plain.outs = nil
}

func (c counters) plus(o counters) counters {
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.cacheEvictions += o.cacheEvictions
	c.residentBytes += o.residentBytes
	c.views += o.views
	c.lookups += o.lookups
	c.proposals += o.proposals
	c.annotationsServed += o.annotationsServed
	c.observations += o.observations
	return c
}

// walls returns every per-job wall of the lane.
func (l *lane) walls() []float64 {
	var out []float64
	for _, rl := range l.rounds {
		out = append(out, rl.walls...)
	}
	return out
}

// wallsOf returns the per-job walls of one class of job.
func (l *lane) wallsOf(class jobClass) []float64 {
	var out []float64
	for _, rl := range l.rounds {
		for k, w := range rl.walls {
			if rl.classes[k] == class {
				out = append(out, w)
			}
		}
	}
	return out
}

// perRound returns each round's per-job walls (rounds played as one
// RunBatch have none and are skipped by midmeanOver).
func (l *lane) perRound() [][]float64 {
	out := make([][]float64, len(l.rounds))
	for i, rl := range l.rounds {
		out[i] = rl.walls
	}
	return out
}

// throughput is the midmean over rounds of jobs per second of timed work;
// of a batch lane's rounds only those played as one RunBatch count.
func (l *lane) throughput(batch bool) (float64, int) {
	var per []float64
	for _, rl := range l.rounds {
		if !batch || rl.walls == nil {
			per = append(per, float64(rl.n)/rl.wall)
		}
	}
	return midmean(per), len(per)
}

func (r *runner) finish(ctx context.Context) (*report, error) {
	first := r.lanes[0]
	d := r.def
	if d.kind == kindRecurring {
		// What the service recorded over all rounds, mined offline.
		r.sampleAnalyses(first.svc)
	}
	rep := &report{
		Workload: d.name, Seed: r.o.seed, Seconds: r.o.seconds, Trace: r.o.trace,
		Metrics: map[string]metricValue{}, Counts: map[string]int64{},
	}
	if d.kind != kindTPCDS {
		for _, l := range r.lanes {
			l.tally = readCounters(l.svc)
		}
	}
	rep.Attempted = first.jobs + r.plain.jobs + r.attemptedExtra
	rep.Failed = r.jobErrors + r.mismatches
	rep.Counts = map[string]int64{
		"jobs":           int64(first.jobs),
		"views_used":     int64(first.total.used),
		"views_built":    int64(first.total.built),
		"views_rejected": int64(first.total.rejected),
		"cache_hits":     first.tally.cacheHits,
		"cache_misses":   first.tally.cacheMisses,
		"observations":   int64(first.tally.observations),
		"view_bytes":     first.total.viewBytes,
		"oracle_checks":  int64(r.oracleChecks),
		"oracle_skipped": int64(r.anyOrder),
		"outputs_digest": int64(first.total.digest >> 1),
	}
	var err error
	if r.o.trace {
		err = r.layerMetrics(ctx, rep)
	} else {
		r.endToEnd(rep)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s has no value", name)
			rep.Failed++
			m.Value = 0
			rep.Metrics[name] = m
		}
	}
	rep.Problems = r.problems
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// endToEnd fills in what a user of the service sees (tracing off).
func (r *runner) endToEnd(rep *report) {
	l, d := r.lanes[0], r.def
	put := func(name string, v float64, unit string, n int) {
		rep.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: n}
	}
	jps, n := l.throughput(d.batch)
	put("jobs_per_s", jps, "jobs/s", n)
	all := l.walls()
	put("job_ms_p50", median(all), "ms", len(all))
	put("job_ms_p95", midmeanOver(l.perRound(), func(asc []float64) float64 { return percentile(asc, 0.95) }), "ms", len(all))
	build := l.wallsOf(classBuild)
	put("build_job_ms_p50", median(build), "ms", len(build))
	reuse := l.wallsOf(classReuse)
	put("reuse_job_ms_p50", median(reuse), "ms", len(reuse))
	pps, n := r.plain.throughput(false)
	put("plain_jobs_per_s", pps, "jobs/s", n)
	put("analyze_ms_p50", median(analyzeMs(r.analyses)), "ms", len(r.analyses))
	put("view_bytes_per_logical_byte", float64(l.total.viewBytes)/float64(l.total.viewLogical), "ratio", l.total.built)
	put("sim_cpu_saved_pct", (1-r.cpuOn/r.cpuOff)*100, "%", r.oracleChecks+r.anyOrder)
	put("setup_s", (time.Since(r.start) - r.timed).Seconds(), "s", 1)
}

func analyzeMs(ms_ []mined) []float64 {
	out := make([]float64, len(ms_))
	for i, m := range ms_ {
		out[i] = ms(m.wall)
	}
	return out
}
