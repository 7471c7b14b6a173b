// Package exec executes physical plans over real rows while maintaining a
// simulated cost clock.
//
// Execution is faithful (operators really filter, join, aggregate, and
// shuffle rows, so correctness of computation reuse is testable end to
// end), while latency and CPU consumption are *simulated* from a cost
// model — the substitution for SCOPE's production cluster documented in
// DESIGN.md. Per-operator statistics feed the CloudViews feedback loop.
//
// A job's vertices run one at a time, in the depth-first post-order of
// the plan (DESIGN.md §7). The data plane inside a vertex is
// partition-parallel: the heavy kernels (hash join, hash aggregate,
// exchange, sort, materialize layout enforcement) fan their per-partition
// work out through the shared bounded worker pool, with deterministic
// merge rules so output bytes never depend on scheduling (DESIGN.md §9).
// Simulated cost is computed from row/byte counts, so real parallelism
// never changes the simulated figures.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/storage"
)

// FaultHook is the executor's fault-injection seam (see internal/fault).
// VertexDone is consulted after each operator attempt finishes its kernel;
// a non-nil error crashes that attempt (the vertex-retry loop decides
// whether to re-run it). VertexDelay returns extra simulated latency for a
// straggling vertex. Both are keyed by a site string ("<plan ordinal>/<op
// kind>") plus the attempt number, so a deterministic hook makes identical
// decisions in every run of the same plan.
type FaultHook interface {
	VertexDone(job, site string, kind plan.OpKind, attempt int) error
	VertexDelay(job, site string, kind plan.OpKind) float64
}

// ObsHook is the executor's observability seam (see internal/obs and the
// core observer that implements it). VertexDone is invoked once per
// *successful* vertex completion, after the node's stats are final, with
// an event built entirely from deterministic simulated quantities. Calls
// arrive on the job's goroutine, one at a time, in the walk's post-order.
// A nil hook costs one branch per vertex.
type ObsHook interface {
	VertexDone(job string, ev VertexEvent)
}

// VertexEvent describes one completed vertex for the observability layer.
type VertexEvent struct {
	// Site is the vertex key "<ordinal>/<kind>"; Kind the operator kind
	// alone.
	Site string
	Kind string
	// Start and End are the vertex's simulated interval in absolute
	// logical ticks (submission instant + child latency / node latency).
	Start, End float64
	// Rows, Bytes, and CPU are the node's output stats.
	Rows  int64
	Bytes int64
	CPU   float64
	// Attempts is how many times the vertex ran (1 = no retries);
	// RetryWait the simulated backoff those retries accumulated and
	// FaultDelay the injected straggler delay, both in ticks.
	Attempts   int
	RetryWait  float64
	FaultDelay float64
	// ViewPath is set for ViewScan and Materialize vertices. Cache is the
	// ViewScan's deterministic cache verdict ("hit"/"miss"), precomputed
	// at job start in plan order so it does not depend on whether a
	// concurrent job decoded the view first (exact runtime hit/miss counts
	// live in the storage layer's own hook).
	ViewPath string
	Cache    string
}

// The vertex-retry loop's bounds. Retries apply only to transient errors
// (see Transient).
const (
	// maxAttempts is the per-vertex attempt cap: one run plus up to three
	// retries.
	maxAttempts = 4
	// jobRetryBudget caps total retries across all vertices of one job,
	// so a systematically failing stage cannot retry forever even with
	// many partitioned siblings.
	jobRetryBudget = 16
	// baseBackoff and maxBackoff shape the capped exponential backoff, in
	// simulated seconds. Backoff is simulated time — it feeds the latency
	// clock, never a wall-clock sleep.
	baseBackoff = 1
	maxBackoff  = 30
)

// backoff returns the simulated wait before re-running a vertex whose
// attempt (0-based) just failed: baseBackoff doubling per attempt, capped
// at maxBackoff.
func backoff(attempt int) float64 {
	return math.Min(baseBackoff*math.Pow(2, float64(attempt)), maxBackoff)
}

// Transient reports whether err is marked retryable — anywhere in its
// chain, something implements Transient() true. Injected faults and other
// recoverable infrastructure errors carry the marker; semantic failures
// (corrupt views, schema mismatches) do not and fail the vertex at once.
func Transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Executor runs plans against a catalog of base tables and a view store.
// RunCtx walks its plan on the calling goroutine and calls the hooks below
// from it, one call at a time, in the walk's post-order.
type Executor struct {
	Catalog *catalog.Catalog
	Store   *storage.Store

	// OnViewMaterialized, if set, is invoked the moment a Materialize
	// operator finishes writing its view — before the rest of the job
	// runs. This is the early-materialization publication hook (§6.4):
	// the job manager reports the view while the job is still running.
	OnViewMaterialized func(v *storage.View)

	// Faults, if set, is consulted around every operator attempt.
	// Production runs leave it nil.
	Faults FaultHook

	// Obs, if set, receives one VertexEvent per successful vertex (see
	// ObsHook). Nil when observability is off.
	Obs ObsHook
}

// Result is the outcome of one job execution.
type Result struct {
	// Outputs maps sink name to the produced rows.
	Outputs map[string][]data.Row
	// NodeStats holds per-operator runtime statistics keyed by the
	// executed plan's nodes.
	NodeStats map[*plan.Node]*Stats
	// TotalCPU is the job's total simulated CPU cost (the PN-hours proxy).
	TotalCPU float64
	// Latency is the job's simulated end-to-end latency (critical path).
	Latency float64
	// MaterializedPaths lists views written during execution.
	MaterializedPaths []string
	// Retries counts vertex attempts that were re-run after a transient
	// failure; RetryWait is the simulated backoff time they accumulated.
	Retries   int
	RetryWait float64
}

// partitions is the unit flowing between operators.
type partitions [][]data.Row

func (p partitions) rows() int64 {
	var n int64
	for _, part := range p {
		n += int64(len(part))
	}
	return n
}

func (p partitions) bytes() int64 {
	var n int64
	for _, part := range p {
		for _, r := range part {
			n += r.ByteSize()
		}
	}
	return n
}

func (p partitions) flatten() []data.Row {
	out := make([]data.Row, 0, p.rows())
	for _, part := range p {
		out = append(out, part...)
	}
	return out
}

type execState struct {
	res  *Result
	memo map[*plan.Node]partitions
	now  int64
	job  string
	// ctx is the job's lifecycle context; kernels poll it at chunk
	// boundaries and runVertex enforces it at vertex boundaries.
	ctx context.Context
	// deadline is the job's absolute logical-clock deadline (0 = none). A
	// vertex whose simulated completion time (now + latency) passes it
	// fails the job with context.DeadlineExceeded in its error chain.
	deadline int64
	// sites maps each node to its fault-site key, "<ordinal in plan.Nodes
	// order>/<op kind>".
	sites map[*plan.Node]string
	// cacheVerdict is the deterministic per-ViewScan cache attribution for
	// observability (nil unless an ObsHook is installed): computed at job
	// start in plan order, so it never depends on whether a concurrent
	// job's decode raced into the hot cache first.
	cacheVerdict map[*plan.Node]string
	// budget is the job's remaining retry allowance.
	budget int
}

// checkpoint is the authoritative cancellation check at vertex boundaries:
// it fails the vertex the moment the job's context is done. Kernels also
// poll the context at chunk boundaries, but those polls only bail early
// (possibly leaving partial output, possibly missing a late cancel) — the
// vertex-boundary checkpoint is what guarantees partial kernel output is
// never consumed: a parent vertex checkpoints before touching child
// output, and Run checkpoints once more after the walk so a partial root
// can never masquerade as a completed job.
func (st *execState) checkpoint() error {
	if err := st.ctx.Err(); err != nil {
		return fmt.Errorf("exec: job %s stopped at cancellation checkpoint: %w", st.job, err)
	}
	return nil
}

// pastDeadline reports whether a vertex completing at simulated latency
// (relative to the job's submission instant st.now) lands past the job's
// absolute deadline. Node latency is monotone up the tree (max over
// children + own share), so "some vertex trips this" is equivalent to
// "the root would trip this".
func (st *execState) pastDeadline(latency float64) bool {
	return st.deadline > 0 && float64(st.now)+latency > float64(st.deadline)
}

// deadlineErr builds the deadline failure. The message names only the
// job, never the vertex that caught the overrun.
func (st *execState) deadlineErr() error {
	return fmt.Errorf("exec: job %s: simulated completion time passes the deadline (t=%d): %w",
		st.job, st.deadline, context.DeadlineExceeded)
}

// RunCtx executes the plan rooted at root under a job lifecycle. jobID
// tags provenance of any views materialized; now is the simulated
// submission time that vertex start/end times and the deadline count from.
//
// The plan is walked depth-first on the calling goroutine: each vertex
// runs after all of its children, a shared (spooled) subtree runs once,
// and only the kernels inside a vertex fan out to the worker pool. Every
// operator attempt flows through the vertex-retry loop (runVertex):
// transient failures — injected or infrastructural — re-run the vertex
// with capped exponential backoff under a per-job budget. Fault sites are
// keyed by plan position, so two runs of one plan produce byte-identical
// results even under a deterministic fault schedule.
//
// ctx cancellation stops execution cooperatively — checked
// authoritatively at every vertex boundary and polled at chunk boundaries
// inside the long kernels — and deadline (an absolute logical-clock
// instant, 0 = none) fails the job with context.DeadlineExceeded as soon
// as any vertex's simulated completion time passes it. Deadline
// enforcement is simulated-time against simulated cost, so it is as
// deterministic as the cost model; wall-clock has no say.
func (e *Executor) RunCtx(ctx context.Context, root *plan.Node, jobID string, now int64, deadline int64) (*Result, error) {
	st := &execState{
		res: &Result{
			Outputs:   map[string][]data.Row{},
			NodeStats: map[*plan.Node]*Stats{},
		},
		memo:     map[*plan.Node]partitions{},
		now:      now,
		job:      jobID,
		ctx:      ctx,
		deadline: deadline,
		sites:    map[*plan.Node]string{},
		budget:   jobRetryBudget,
	}
	nodes := plan.Nodes(root)
	for i, n := range nodes {
		st.sites[n] = fmt.Sprintf("%d/%s", i, n.Kind)
	}
	if e.Obs != nil {
		// Deterministic cache attribution for the trace: walk ViewScans in
		// plan order; the first scan of a path reports the cache's state as
		// of job start, every later scan of the same path reports a hit
		// (the first scan's decode is resident by then). This is a verdict
		// about the *plan*, not about which goroutine won the decode race.
		st.cacheVerdict = map[*plan.Node]string{}
		seen := map[string]bool{}
		for _, n := range nodes {
			if n.Kind != plan.OpViewScan {
				continue
			}
			switch {
			case seen[n.ViewPath]:
				st.cacheVerdict[n] = "hit"
			case e.Store != nil && e.Store.CacheContains(n.ViewPath):
				st.cacheVerdict[n] = "hit"
			default:
				st.cacheVerdict[n] = "miss"
			}
			seen[n.ViewPath] = true
		}
	}
	if _, err := e.run(root, st); err != nil {
		return nil, err
	}
	// Final checkpoint: a cancel that landed inside the root vertex's
	// kernel (which bails without error, leaving partial output) must not
	// surface as a successful result.
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	// Sum exclusive costs in deterministic plan order: float addition is
	// order-sensitive in the last bits, and reuse validation compares
	// TotalCPU across executions exactly.
	for _, n := range nodes {
		st.res.TotalCPU += st.res.NodeStats[n].ExclusiveCost
	}
	st.res.Latency = st.res.NodeStats[root].Latency
	// Report paths in a canonical order rather than the walk's.
	sort.Strings(st.res.MaterializedPaths)
	return st.res, nil
}

// run executes n after its children, depth-first. Outputs are memoized
// per node, so a subtree with several parents runs once.
func (e *Executor) run(n *plan.Node, st *execState) (partitions, error) {
	if out, ok := st.memo[n]; ok {
		return out, nil
	}
	childParts := make([]partitions, len(n.Children))
	childStats := make([]*Stats, len(n.Children))
	var childLatency float64
	var childCumCost float64
	for i, c := range n.Children {
		p, err := e.run(c, st)
		if err != nil {
			return nil, err
		}
		childParts[i] = p
		cs := st.res.NodeStats[c]
		childStats[i] = cs
		if cs.Latency > childLatency {
			childLatency = cs.Latency
		}
		childCumCost += cs.CumulativeCost
	}

	out, outBytes, cost, vm, err := e.runVertex(n, childParts, childStats, st)
	if err != nil {
		return nil, err
	}

	ns := nodeStats(out, outBytes, cost, childLatency, childCumCost)
	ns.Latency += vm.extra
	if st.pastDeadline(ns.Latency) {
		return nil, st.deadlineErr()
	}
	st.res.NodeStats[n] = ns
	st.memo[n] = out
	if e.Obs != nil {
		e.emitVertex(n, ns, childLatency, vm, st)
	}
	return out, nil
}

// vertexMeta is runVertex's per-vertex accounting beyond the kernel
// output: extra is the simulated latency added to the node (backoff waits
// plus injected straggler delay); attempts, retryWait, and faultDelay
// break it down for the observability event.
type vertexMeta struct {
	extra      float64
	attempts   int
	retryWait  float64
	faultDelay float64
}

// emitVertex reports one successful vertex to the observability hook. All
// fields derive from simulated quantities (stats, plan position, fault
// decisions), so the events are identical in every run of the same plan.
func (e *Executor) emitVertex(n *plan.Node, ns *Stats, childLatency float64, vm vertexMeta, st *execState) {
	ev := VertexEvent{
		Site:       st.sites[n],
		Kind:       n.Kind.String(),
		Start:      float64(st.now) + childLatency,
		End:        float64(st.now) + ns.Latency,
		Rows:       ns.Rows,
		Bytes:      ns.Bytes,
		CPU:        ns.ExclusiveCost,
		Attempts:   vm.attempts,
		RetryWait:  vm.retryWait,
		FaultDelay: vm.faultDelay,
	}
	switch n.Kind {
	case plan.OpViewScan:
		ev.ViewPath = n.ViewPath
		ev.Cache = st.cacheVerdict[n]
	case plan.OpMaterialize:
		ev.ViewPath = n.MatPath
	}
	e.Obs.VertexDone(st.job, ev)
}

// runVertex is the vertex-retry loop: it runs one operator attempt
// (kernel plus fault hook) and re-runs it on transient failure, up to the
// per-vertex attempt cap and the job's retry budget. Retried
// kernels are idempotent by construction — Output rewrites the same rows,
// Materialize deduplicates through the store's first-writer-wins WriteCtx
// — so a retry re-runs only this vertex, never its subtree. The returned vertexMeta carries the
// extra simulated latency for the node's stats (backoff waits plus
// injected straggler delay) and its breakdown for observability; it is
// deterministic because fault decisions are.
func (e *Executor) runVertex(n *plan.Node, in []partitions, inStats []*Stats, st *execState) (partitions, int64, float64, vertexMeta, error) {
	site := st.sites[n]
	vm := vertexMeta{}
	// Vertex-boundary cancellation checkpoint — also the guard that keeps
	// any partial output a cancelled child kernel produced from being read.
	if err := st.checkpoint(); err != nil {
		return nil, 0, 0, vm, err
	}
	for attempt := 0; ; attempt++ {
		vm.attempts = attempt + 1
		out, outBytes, cost, err := e.apply(n, in, inStats, st)
		if err == nil && e.Faults != nil {
			if ferr := e.Faults.VertexDone(st.job, site, n.Kind, attempt); ferr != nil {
				err = fmt.Errorf("exec: vertex %s: %w", site, ferr)
			}
		}
		if err == nil {
			if e.Faults != nil {
				vm.faultDelay = e.Faults.VertexDelay(st.job, site, n.Kind)
				vm.extra += vm.faultDelay
			}
			return out, outBytes, cost, vm, nil
		}
		if !Transient(err) {
			return nil, 0, 0, vm, err
		}
		if attempt+1 >= maxAttempts {
			return nil, 0, 0, vm, fmt.Errorf("exec: vertex %s: attempts exhausted: %w", site, err)
		}
		// Re-check the lifecycle before burning a retry: a cancelled job
		// must not keep re-running a crashing vertex.
		if cerr := st.checkpoint(); cerr != nil {
			return nil, 0, 0, vm, cerr
		}
		st.budget--
		if st.budget < 0 {
			return nil, 0, 0, vm, fmt.Errorf("exec: vertex %s: job retry budget exhausted: %w", site, err)
		}
		wait := backoff(attempt)
		vm.extra += wait
		vm.retryWait += wait
		st.res.Retries++
		st.res.RetryWait += wait
	}
}

// nodeStats assembles an operator's Stats, computing output rows exactly
// once and output bytes exactly once per invocation (operators that merely
// rearrange their input report the input's byte count instead of re-walking
// every row; outBytes < 0 requests a fresh — parallel — walk).
func nodeStats(out partitions, outBytes int64, cost, childLatency, childCumCost float64) *Stats {
	rows := out.rows()
	if outBytes < 0 {
		outBytes = parallelBytes(out, rows)
	}
	dop := len(out)
	if dop < 1 {
		dop = 1
	}
	return &Stats{
		Rows:           rows,
		Bytes:          outBytes,
		ExclusiveCost:  cost,
		CumulativeCost: childCumCost + cost,
		Latency:        childLatency + latencyShare(cost, out, rows),
		DOP:            dop,
	}
}

// latencyShare converts an operator's CPU cost into wall-clock time: the
// job waits for the *slowest* worker, so the share is cost weighted by the
// largest partition's fraction of the rows. Balanced partitions give the
// ideal cost/DOP; skewed layouts (including badly designed views, §5.3)
// straggle.
func latencyShare(cost float64, out partitions, total int64) float64 {
	dop := len(out)
	if dop <= 1 {
		return cost
	}
	if total == 0 {
		return cost / float64(dop)
	}
	maxPart := 0
	for _, p := range out {
		if len(p) > maxPart {
			maxPart = len(p)
		}
	}
	return cost * float64(maxPart) / float64(total)
}

// apply executes one operator and returns its output partitions, its
// output byte size when the operator knows it for free (-1 otherwise),
// and its exclusive simulated cost. Input sizes come from the children's
// already-recorded Stats, never from re-walking the input rows.
func (e *Executor) apply(n *plan.Node, in []partitions, inStats []*Stats, st *execState) (partitions, int64, float64, error) {
	ctx := st.ctx
	switch n.Kind {
	case plan.OpExtract:
		return e.applyExtract(n)
	case plan.OpViewScan:
		return e.applyViewScan(n, st)
	case plan.OpFilter:
		return applyFilter(ctx, n, in[0], inStats[0])
	case plan.OpProject:
		return applyProject(ctx, n, in[0], inStats[0])
	case plan.OpExchange:
		return applyExchange(ctx, n, in[0], inStats[0])
	case plan.OpHashJoin, plan.OpMergeJoin:
		return applyJoin(ctx, n, in[0], in[1], inStats[0], inStats[1])
	case plan.OpHashGbAgg:
		return applyHashAgg(ctx, n, in[0], inStats[0])
	case plan.OpStreamGbAgg:
		return applyStreamAgg(ctx, n, in[0], inStats[0])
	case plan.OpSort:
		return applySort(ctx, n, in[0], inStats[0])
	case plan.OpTop:
		return applyTop(n, in[0], inStats[0])
	case plan.OpUnionAll:
		return applyUnion(n, in, inStats)
	case plan.OpProcess:
		return applyProcess(ctx, n, in[0], inStats[0])
	case plan.OpReduce:
		return applyReduce(ctx, n, in[0], inStats[0])
	case plan.OpSpool:
		return in[0], inStats[0].Bytes, OperatorCost(n.Kind, 0, 0, 0), nil
	case plan.OpOutput:
		st.res.Outputs[n.OutputName] = in[0].flatten()
		return in[0], inStats[0].Bytes, OperatorCost(n.Kind, inStats[0].Rows, 0, 0), nil
	case plan.OpMaterialize:
		return e.applyMaterialize(n, in[0], inStats[0], st)
	default:
		return nil, 0, 0, fmt.Errorf("exec: unsupported operator %v", n.Kind)
	}
}

func (e *Executor) applyExtract(n *plan.Node) (partitions, int64, float64, error) {
	t, err := e.Catalog.Get(n.Table)
	if err != nil {
		return nil, 0, 0, err
	}
	if t.GUID != n.GUID {
		return nil, 0, 0, fmt.Errorf("exec: table %s has version %s, plan compiled against %s",
			n.Table, t.GUID, n.GUID)
	}
	out := make(partitions, len(t.Partitions))
	for i := range t.Partitions {
		out[i] = t.Partitions[i]
	}
	// Table metadata is cached on the table itself: recurring jobs extract
	// the same inputs over and over, and the byte walk dominated the scan.
	rows := t.NumRows()
	bytes := t.ByteSize()
	return out, bytes, OperatorCost(n.Kind, rows, 0, bytes), nil
}

func (e *Executor) applyViewScan(n *plan.Node, st *execState) (partitions, int64, float64, error) {
	// ConsumeCtx (not Get): reading a view on behalf of a job verifies its
	// checksum and consults the storage fault hook, so a corrupt or
	// missing view surfaces here as a permanent storage error the job
	// frontend turns into quarantine-and-replan (or, when the store's
	// circuit breaker is open, a short-circuit the frontend turns into a
	// replan without quarantine). The job context lets a cancelled job
	// bail out of the partition-parallel decode at chunk boundaries.
	v, parts, err := e.Store.ConsumeCtx(st.ctx, n.ViewPath)
	if err != nil {
		return nil, 0, 0, err
	}
	// The copy here is shallow on purpose: only the outer partition slice
	// is duplicated, the row slices (and rows) alias the decoded view —
	// which the store's hot cache may be sharing with other consumers.
	// That is safe because the engine treats rows as immutable — operators
	// that reorder or extend rows (sort, exchange, project, process)
	// always work on freshly flattened slices or newly allocated rows,
	// never in place on their input. Concurrent consumers of one view
	// therefore share one decode without copies;
	// TestViewScanConcurrentConsumers enforces the no-mutation contract.
	// Stats and cost price the logical (row-representation) size the scan
	// materializes, not the smaller at-rest encoded footprint.
	out := make(partitions, len(parts))
	copy(out, parts)
	return out, v.LogicalBytes, OperatorCost(n.Kind, 0, v.Rows, v.LogicalBytes), nil
}

// forEachPartition runs fn over every input partition, fanning out
// through the shared worker pool when the data is large enough to
// amortize scheduling. Output order is deterministic: fn(i) writes slot i.
// Expressions and operator state are read-only during evaluation, so
// per-partition work is race-free. inRows is the caller's (already known)
// input row count, used only for the fan-out threshold.
//
// ctx is polled at partition (chunk) boundaries: once the job is
// cancelled, remaining partitions are skipped and their output slots stay
// nil. The partial result is never observed — the vertex-boundary
// checkpoint in runVertex fails the job before any parent consumes it.
func forEachPartition(ctx context.Context, in partitions, inRows int64, fn func(i int, part []data.Row) []data.Row) partitions {
	out := make(partitions, len(in))
	if len(in) < 2 || inRows < parallelRowThreshold {
		for i, part := range in {
			if ctx.Err() != nil {
				return out
			}
			out[i] = fn(i, part)
		}
		return out
	}
	parallelRange(len(in), func(i int) {
		if ctx.Err() != nil {
			return
		}
		out[i] = fn(i, in[i])
	})
	return out
}

// selPool recycles the selection buffers compiled filters fill per
// partition. The buffers hold row indexes only — they never escape the
// operator — so pooling them is safe regardless of where the kept rows
// flow.
var selPool = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 1024)
		return &s
	},
}

func applyFilter(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	// Compile once per vertex. The compiled program is immutable after
	// Compile returns, so every partition worker shares it race-free; the
	// child schema supplies the kind hints for the specialized comparisons.
	prog := expr.Compile(n.Pred, n.Children[0].Schema())
	// Output bytes are summed during the gather (the selection already has
	// the kept rows in hand), replacing nodeStats' re-walk of the output.
	bytesPer := make([]int64, len(in))
	out := forEachPartition(ctx, in, inStats.Rows, func(i int, part []data.Row) []data.Row {
		if len(part) == 0 {
			return nil
		}
		selp := selPool.Get().(*[]int32)
		sel := prog.SelectInto(prog.NewCtx(), part, (*selp)[:0])
		if len(sel) == 0 {
			*selp = sel
			selPool.Put(selp)
			return nil
		}
		// The kept slice is long-lived (it may flow into outputs or
		// materialized views), so it is allocated exactly sized from the
		// selection count — the shrink-wrap contract without the
		// selectivity guess or the copy.
		kept := make([]data.Row, len(sel))
		var b int64
		for j, idx := range sel {
			r := part[idx]
			kept[j] = r
			b += r.ByteSize()
		}
		bytesPer[i] = b
		*selp = sel
		selPool.Put(selp)
		return kept
	})
	var outBytes int64
	for _, b := range bytesPer {
		outBytes += b
	}
	return out, outBytes, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

func applyProject(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	// Compile the projection list once per vertex (shared read-only across
	// partition workers); EmitInto reports the exact output byte size, so
	// nodeStats skips its re-walk of the emitted rows.
	proj := expr.CompileProject(n.Exprs, n.Children[0].Schema())
	width := proj.Width()
	bytesPer := make([]int64, len(in))
	out := forEachPartition(ctx, in, inStats.Rows, func(i int, part []data.Row) []data.Row {
		arena := data.NewRowArenaSized(len(part) * width)
		rows := make([]data.Row, len(part))
		arena.NewRows(rows, width)
		bytesPer[i] = proj.EmitInto(proj.NewCtx(), part, rows)
		return rows
	})
	var outBytes int64
	for _, b := range bytesPer {
		outBytes += b
	}
	return out, outBytes, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

func applyExchange(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	cost := OperatorCost(n.Kind, inStats.Rows, 0, inStats.Bytes)
	count := n.Part.Count
	if count < 1 {
		count = 1
	}
	switch n.Part.Kind {
	case plan.PartSingleton:
		return partitions{in.flatten()}, inStats.Bytes, cost, nil
	case plan.PartHash:
		cols := n.Part.Cols
		out := scatterRows(ctx, in, inStats.Rows, count, func(_, _ int, r data.Row) int {
			return int(r.Hash64(cols...) % uint64(count))
		})
		return out, inStats.Bytes, cost, nil
	case plan.PartRoundRobin:
		// A row's destination is its global scan index mod count; starts
		// turns (partition, offset) into that global index so the scatter
		// can run partition-parallel.
		starts := make([]int, len(in))
		idx := 0
		for i, part := range in {
			starts[i] = idx
			idx += len(part)
		}
		out := scatterRows(ctx, in, inStats.Rows, count, func(i, j int, _ data.Row) int {
			return (starts[i] + j) % count
		})
		return out, inStats.Bytes, cost, nil
	case plan.PartRange:
		// Parallel sort: a range exchange globally sorts on the range
		// columns (full-row tie-break for determinism) and slices into
		// equi-depth partitions. It pays sort cost on top of shuffle cost.
		keys := fullRowTieBreak(n.Part.Cols, in)
		rows := sortedFlatten(ctx, in, inStats.Rows, keys, nil)
		if nr := float64(len(rows)); nr > 1 {
			cost += nr * costPerRowSortBase * math.Log2(nr)
		}
		return sliceEquiDepth(rows, count), inStats.Bytes, cost, nil
	default:
		return in, inStats.Bytes, cost, nil
	}
}

func applySort(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	// Tie-break on the full row so sort order is a total order: a Top
	// above the sort must select the same rows whether its input was
	// recomputed or read back from a materialized view (whose physical
	// layout may legally differ).
	sortKeys := fullRowTieBreak(n.SortKeys, in)
	desc := append([]bool(nil), n.Desc...)
	rows := sortedFlatten(ctx, in, inStats.Rows, sortKeys, desc)
	return partitions{rows}, inStats.Bytes, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

func applyTop(n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	rows := in.flatten()
	outBytes := inStats.Bytes
	if int64(len(rows)) > n.N {
		rows = rows[:n.N]
		outBytes = -1 // truncated: the survivors must be re-measured
	}
	return partitions{rows}, outBytes, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

func applyUnion(n *plan.Node, in []partitions, inStats []*Stats) (partitions, int64, float64, error) {
	var totalParts int
	var totalRows, totalBytes int64
	for i, p := range in {
		totalParts += len(p)
		totalRows += inStats[i].Rows
		totalBytes += inStats[i].Bytes
	}
	// The output header is a fresh outer slice sized up front — it never
	// aliases any input's outer slice, so a downstream operator replacing
	// or reordering output partitions cannot corrupt a shared input.
	// (The inner partition slices are shared, like every pass-through
	// operator: rows are immutable and partition slices are never mutated
	// in place.)
	out := make(partitions, 0, totalParts)
	for _, p := range in {
		out = append(out, p...)
	}
	return out, totalBytes, OperatorCost(n.Kind, totalRows, 0, 0), nil
}

func applyProcess(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	out := forEachPartition(ctx, in, inStats.Rows, func(_ int, part []data.Row) []data.Row {
		arena := data.NewRowArenaSized(len(part) * (width(part) + 1))
		rows := make([]data.Row, len(part))
		for j, r := range part {
			rows[j] = arena.Extend(r, udoValue(r, n.UDOCodeHash))
		}
		return rows
	})
	return out, -1, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

// width returns the column count of the first row, the emit-width hint for
// extend-shaped kernels (0 on empty input, which emits no rows).
func width(rows []data.Row) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

// udoValue is the deterministic stand-in body for user-defined operators:
// a hash of the input row mixed with the UDO code hash, so changing the
// user's code changes the output (which correctness tests rely on).
func udoValue(r data.Row, codeHash string) data.Value {
	h := r.Hash64() ^ data.String_(codeHash).Hash64()
	return data.Int(int64(h & 0x7fffffffffffffff))
}

func applyReduce(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	// Group rows, then append a deterministic per-group value derived
	// from the group key and the UDO code hash.
	rows := sortedFlatten(ctx, in, inStats.Rows, n.GroupBy, nil)
	arena := data.NewRowArenaSized(len(rows) * (width(rows) + 1))
	out := make([]data.Row, len(rows))
	var groupVal data.Value
	var prev data.Row
	for i, r := range rows {
		// Chunk-boundary cancellation poll for the serial group walk.
		if i&4095 == 0 && ctx.Err() != nil {
			break
		}
		if prev == nil || !sameKey(prev, r, n.GroupBy) {
			key := make([]data.Value, len(n.GroupBy))
			for k, g := range n.GroupBy {
				key[k] = r[g]
			}
			h := data.Row(key).Hash64() ^ data.String_(n.UDOCodeHash).Hash64()
			groupVal = data.Int(int64(h & 0x7fffffffffffffff))
			prev = r
		}
		out[i] = arena.Extend(r, groupVal)
	}
	return partitions{out}, -1, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}

func sameKey(a, b data.Row, keys []int) bool {
	for _, k := range keys {
		if !data.Equal(a[k], b[k]) {
			return false
		}
	}
	return true
}

func (e *Executor) applyMaterialize(n *plan.Node, in partitions, inStats *Stats, st *execState) (partitions, int64, float64, error) {
	// Enforce the mined physical design on the view copy.
	viewParts := enforceDesign(st.ctx, in, inStats.Rows, n.MatProps)
	// A cancel during layout enforcement leaves viewParts partial; the
	// checkpoint here keeps a half-built layout from ever reaching the
	// store. (A cancel landing after this check is handled by WriteCtx,
	// which re-checks before installing the encoded payload.)
	if err := st.checkpoint(); err != nil {
		return nil, 0, 0, err
	}
	rows := partitions(viewParts).rows()
	cost := OperatorCost(n.Kind, 0, rows, inStats.Bytes)
	v := &storage.View{
		Path:          n.MatPath,
		PreciseSig:    n.MatPreciseSig,
		NormSig:       n.MatNormSig,
		ProducerJobID: st.job,
		ExpiresAt:     1<<62 - 1, // runtime sets real expiry from the analyzer
		Schema:        n.Schema(),
		Props:         n.MatProps,
	}
	// WriteCtx encodes viewParts into the view's columnar at-rest payload
	// (partition-parallel) and records the payload checksum.
	created, err := e.Store.WriteCtx(st.ctx, v, viewParts)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("exec: materialize %s: %w", n.MatPath, err)
	}
	if !created {
		// Either lost the first-writer-wins race to another builder (this
		// job's build lock expired and both finished — the winner's copy
		// is byte-identical, so drop ours and let the winner publish), or
		// this is our own vertex retry after a crash that landed past the
		// write — the first attempt already published.
		return in, inStats.Bytes, cost, nil
	}
	if e.OnViewMaterialized != nil {
		e.OnViewMaterialized(v)
	}
	st.res.MaterializedPaths = append(st.res.MaterializedPaths, n.MatPath)
	return in, inStats.Bytes, cost, nil
}

// enforceDesign lays rows out according to the view's physical design:
// hash or range partitioning on the design columns and per-partition sort
// order. The layout kernels are the same parallel scatter / sorted-merge
// primitives the exchange uses; the trailing per-partition sort fans out
// across partitions (each sorts a freshly built slice, never shared input).
func enforceDesign(ctx context.Context, in partitions, inRows int64, props plan.PhysicalProps) [][]data.Row {
	var parts partitions
	switch props.Part.Kind {
	case plan.PartRange:
		count := props.Part.Count
		if count < 1 {
			count = len(in)
			if count < 1 {
				count = 1
			}
		}
		keys := fullRowTieBreak(props.Part.Cols, in)
		rows := sortedFlatten(ctx, in, inRows, keys, nil)
		parts = sliceEquiDepth(rows, count)
	case plan.PartHash:
		count := props.Part.Count
		if count < 1 {
			count = len(in)
			if count < 1 {
				count = 1
			}
		}
		cols := props.Part.Cols
		parts = scatterRows(ctx, in, inRows, count, func(_, _ int, r data.Row) int {
			return int(r.Hash64(cols...) % uint64(count))
		})
	case plan.PartSingleton:
		parts = partitions{in.flatten()}
	default:
		parts = make(partitions, len(in))
		for i, p := range in {
			parts[i] = append([]data.Row(nil), p...)
		}
	}
	if len(props.Sort.Cols) > 0 {
		parallelRange(len(parts), func(i int) {
			if ctx.Err() != nil {
				return
			}
			data.SortRows(parts[i], props.Sort.Cols, props.Sort.Desc)
		})
	}
	return parts
}
