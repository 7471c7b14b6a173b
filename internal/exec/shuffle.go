package exec

import (
	"context"
	"sync"

	"cloudviews/internal/data"
)

// shuffle.go holds the partition-parallel data-movement kernels shared by
// Exchange, Materialize (enforceDesign), Sort, and Reduce:
// deterministic parallel scatter and the parallel-sort + k-way-merge pair.
// The determinism contract for every kernel here is documented in
// DESIGN.md §9: outputs are a pure function of (input partitions, operator
// parameters), never of goroutine scheduling.

// parallelRowThreshold is the input size below which the kernels stay
// serial: scatter matrices and per-partition sort copies cost more than
// they save on tiny inputs.
const parallelRowThreshold = 256

// intKeyHash is the cheap deterministic hash for single int-like key
// columns (murmur fmix64 over payload and kind). Join chain lookup and
// group identification only need *a* deterministic, Equal-consistent hash
// — not the canonical Value.Hash64 byte-stream — because no output byte
// depends on those internal hash values: join output order follows build
// scan order, and aggregate output partitioning uses the canonical hash
// computed once per group. Mixing the kind keeps NULL (K=0, I=0) distinct
// from Int(0), matching data.Equal.
func intKeyHash(v data.Value) uint64 {
	h := uint64(v.I) ^ (uint64(v.K) * 0x9e3779b97f4a7c15)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// nextPow2 returns the smallest power of two >= n (and >= 8), the slot
// count used by the open-addressed hash indexes in join and agg.
func nextPow2(n int) int {
	s := 8
	for s < n {
		s <<= 1
	}
	return s
}

// int32Pool recycles per-partition target buffers for scatter passes. The
// buffers never escape scatterRows, so pooling them is safe.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

func getInt32Buf(n int) (*[]int32, []int32) {
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return p, (*p)[:n]
}

// scatterRows repartitions in into count output partitions, where
// target(i, j, r) names the destination of row j of input partition i.
// Output partition p holds its rows in global input scan order (input
// partitions in index order, rows in order within each) — exactly the
// order the serial append loop produced. The scatter runs in three
// passes: a parallel count pass per input partition, a serial prefix-sum
// handing each (input, output) pair a disjoint destination range, and a
// parallel placement pass writing rows directly into the output slices.
// Writers touch disjoint ranges, so the placement pass is lock-free.
//
// Cancellation polls sit at partition boundaries. A cancelled scatter may
// return partial output (even output slices with nil row entries from a
// skipped placement pass) — callers never see it, because the job fails at
// the next vertex checkpoint — but every pass keeps its own bookkeeping
// intact: count buffers are still allocated and pooled buffers still
// returned, so no pass dereferences state a skipped sibling never built.
func scatterRows(ctx context.Context, in partitions, inRows int64, count int, target func(i, j int, r data.Row) int) partitions {
	if count < 1 {
		count = 1
	}
	if len(in) == 0 {
		return make(partitions, count)
	}
	if inRows < parallelRowThreshold || len(in) == 1 {
		// Serial fast path: the original append loop.
		out := make(partitions, count)
		for i, part := range in {
			if ctx.Err() != nil {
				return out
			}
			for j, r := range part {
				p := target(i, j, r)
				out[p] = append(out[p], r)
			}
		}
		return out
	}

	targets := make([]*[]int32, len(in))
	counts := make([][]int32, len(in))
	parallelRange(len(in), func(i int) {
		part := in[i]
		buf, t := getInt32Buf(len(part))
		c := make([]int32, count)
		if ctx.Err() == nil {
			for j, r := range part {
				p := target(i, j, r)
				t[j] = int32(p)
				c[p]++
			}
		}
		targets[i] = buf
		counts[i] = c
	})

	// Prefix sums: base[i][p] is where input i's rows destined for output p
	// begin within out[p].
	totals := make([]int64, count)
	base := make([][]int64, len(in))
	for i := range in {
		b := make([]int64, count)
		for p := 0; p < count; p++ {
			b[p] = totals[p]
			totals[p] += int64(counts[i][p])
		}
		base[i] = b
	}
	out := make(partitions, count)
	for p := range out {
		out[p] = make([]data.Row, totals[p])
	}
	parallelRange(len(in), func(i int) {
		// Cancellation is monotone, so a skipped placement pass implies the
		// matching count pass was (or will read as) skipped too — target
		// buffers holding stale pool garbage are never dereferenced.
		if ctx.Err() == nil {
			pos := base[i] // exclusively owned by this index after the prefix pass
			t := (*targets[i])[:len(in[i])]
			for j, r := range in[i] {
				p := t[j]
				out[p][pos[p]] = r
				pos[p]++
			}
		}
		int32Pool.Put(targets[i])
	})
	return out
}

// sortedFlatten returns all rows of in, stably sorted by keys/desc —
// byte-identical to data.SortRows over in.flatten(): each partition is
// copied and stably sorted in parallel, then merged k ways with ties
// breaking to the lower partition index. Because the flatten order is
// partition-major, "lower partition first on tie" reproduces exactly what
// one global stable sort over the flattened slice would produce.
func sortedFlatten(ctx context.Context, in partitions, inRows int64, keys []int, desc []bool) []data.Row {
	nonEmpty := 0
	for _, p := range in {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 || inRows < parallelRowThreshold {
		rows := in.flatten()
		data.SortRows(rows, keys, desc)
		return rows
	}
	// Copy every partition into one backing slice, sort the disjoint
	// sub-slices in parallel, then merge.
	backing := make([]data.Row, inRows)
	runs := make([][]data.Row, 0, nonEmpty)
	off := 0
	for _, p := range in {
		if len(p) == 0 {
			continue
		}
		runs = append(runs, backing[off:off+len(p):off+len(p)])
		copy(runs[len(runs)-1], p)
		off += len(p)
	}
	parallelRange(len(runs), func(i int) {
		if ctx.Err() != nil {
			return
		}
		data.SortRows(runs[i], keys, desc)
	})
	// A cancelled job skips the k-way merge entirely: the runs may be
	// unsorted, and the caller's vertex fails at its checkpoint anyway.
	if ctx.Err() != nil {
		return nil
	}
	return mergeRuns(runs, inRows, keys, desc)
}

// mergeRuns merges pre-sorted runs into one slice using a binary heap of
// run cursors. The heap comparator breaks ties on run index, which keeps
// the merge stable with respect to run order.
func mergeRuns(runs [][]data.Row, total int64, keys []int, desc []bool) []data.Row {
	if len(runs) == 1 {
		return runs[0]
	}
	out := make([]data.Row, 0, total)
	type cursor struct {
		rows []data.Row
		pos  int
		src  int
	}
	heap := make([]cursor, 0, len(runs))
	less := func(a, b cursor) bool {
		c := data.CompareRows(a.rows[a.pos], b.rows[b.pos], keys, desc)
		if c != 0 {
			return c < 0
		}
		return a.src < b.src
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i, run := range runs {
		heap = append(heap, cursor{rows: run, src: i})
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		top := &heap[0]
		out = append(out, top.rows[top.pos])
		top.pos++
		if top.pos == len(top.rows) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}

// sliceEquiDepth cuts a globally sorted row slice into count equi-depth
// partitions — the layout both the range exchange and range-designed
// views enforce.
func sliceEquiDepth(rows []data.Row, count int) partitions {
	out := make(partitions, count)
	per := (len(rows) + count - 1) / count
	for i := 0; i < count; i++ {
		lo, hi := i*per, (i+1)*per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		out[i] = rows[lo:hi]
	}
	return out
}

// fullRowTieBreak returns keys extended with every column of the row shape
// (taken from the first non-empty partition), making the sort key a total
// order for byte-distinct rows.
func fullRowTieBreak(keys []int, in partitions) []int {
	out := append([]int(nil), keys...)
	for _, p := range in {
		if len(p) > 0 {
			for i := range p[0] {
				out = append(out, i)
			}
			return out
		}
	}
	return out
}

// parallelBytes sums Row.ByteSize over all partitions, fanning the walk
// out per partition. Per-partition subtotals are combined in partition
// order; integer addition makes the result order-insensitive anyway.
func parallelBytes(in partitions, rows int64) int64 {
	if rows < parallelRowThreshold || len(in) < 2 {
		return in.bytes()
	}
	subs := make([]int64, len(in))
	parallelRange(len(in), func(i int) {
		var n int64
		for _, r := range in[i] {
			n += r.ByteSize()
		}
		subs[i] = n
	})
	var total int64
	for _, s := range subs {
		total += s
	}
	return total
}
