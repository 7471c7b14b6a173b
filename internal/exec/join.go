package exec

import (
	"context"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// join.go implements the partition-parallel hash join. The build side is
// sharded by the top bits of the key hash: each shard owns a disjoint
// hash range, so shards can be built concurrently with no contention,
// and the chain for any given hash lives entirely in one shard. Within a
// shard, rows are chained in global build-side scan order (partitions in
// index order, rows in order), which is exactly the candidate order the
// old single-map build produced — probe output is byte-identical.
//
// Chains are indexed by an open-addressed slot table instead of a Go map:
// the key hash is already computed (and murmur-finalized), so linear
// probing on (hash & mask) skips the map's internal re-hash and bucket
// machinery on every build insert and probe lookup.

// joinShardBits sizes the build fan-out; 16 shards saturates the worker
// pool on typical machines while keeping per-shard tables dense.
const joinShardBits = 4

// joinSlabRows caps how many output rows' worth of Values one arena call
// reserves for the probe emit loop (see applyJoin).
const joinSlabRows = 128

// slabRows is how many rows the probe's next slab carves for a partition
// of n input rows that has emitted rows so far: the rows it still owes
// against its one-row-per-input hint, at most joinSlabRows, so the slabs
// tile the hinted block exactly; or a full slab once matches exceed inputs.
func slabRows(n, emitted int) int {
	if owed := n - emitted; owed > 0 && owed < joinSlabRows {
		return owed
	}
	return joinSlabRows
}

// joinSlot is one open-addressed chain entry, packed so a probe touches a
// single cache line: the chain's key hash and the [head, tail] row indexes
// of its candidate list. head stores rowIdx+1 (0 = empty slot), which
// disambiguates occupancy without reserving any hash value.
type joinSlot struct {
	hash uint64
	head int32
	tail int32
}

// buildRow pairs a build-side row with its cached ByteSize so the probe
// emit path reads both from one cache line.
type buildRow struct {
	row   data.Row
	bytes int64
}

type joinShard struct {
	// slots is the open-addressed chain index, linear probing on
	// collision. Sized up front for the shard's row count at <=50% load,
	// so it never grows. next threads each chain's rows in insertion
	// order, -1 terminated. int32 indexing halves the chain memory —
	// build sides beyond 2^31 rows are far past this simulator's scale.
	slots []joinSlot

	rows []buildRow
	next []int32
}

// joinTable is the completed build side.
type joinTable struct {
	shards []joinShard
	shift  uint // shard index = hash >> shift
}

func newJoinShard(capRows int) joinShard {
	size := nextPow2(2 * capRows)
	return joinShard{
		slots: make([]joinSlot, size),
		rows:  make([]buildRow, 0, capRows),
		next:  make([]int32, 0, capRows),
	}
}

// buildJoinTable hashes and shards the build side in parallel, then builds
// each shard's chain index in parallel. fastKey selects the single
// int-like-column hash (see intKeyHash); the same flag must be used for
// the probe side so both sides hash identically.
func buildJoinTable(ctx context.Context, in partitions, inRows int64, keys []int, fastKey bool) *joinTable {
	if inRows < parallelRowThreshold || len(in) == 1 {
		// Serial single-shard build (shift 64 maps every hash to shard 0).
		sh := newJoinShard(int(inRows))
		for _, part := range in {
			if ctx.Err() != nil {
				break
			}
			for _, r := range part {
				if fastKey {
					sh.insert(intKeyHash(r[keys[0]]), r)
				} else {
					sh.insert(r.Hash64(keys...), r)
				}
			}
		}
		return &joinTable{shards: []joinShard{sh}, shift: 64}
	}

	const shardCount = 1 << joinShardBits
	shift := uint(64 - joinShardBits)

	// Scatter (hash, row) pairs by shard, preserving global scan order
	// within each shard: count, prefix, place — same scheme as
	// scatterRows, but carrying the already-computed hash alongside the
	// row so the build pass never rehashes.
	hashes := make([][]uint64, len(in))
	counts := make([][]int32, len(in))
	parallelRange(len(in), func(i int) {
		part := in[i]
		hs := make([]uint64, len(part))
		c := make([]int32, shardCount)
		// Chunk-boundary cancellation poll; skipped partitions keep their
		// zeroed hash/count buffers, so the later passes stay in bounds
		// (cancellation is monotone — see scatterRows).
		if ctx.Err() == nil {
			for j, r := range part {
				var h uint64
				if fastKey {
					h = intKeyHash(r[keys[0]])
				} else {
					h = r.Hash64(keys...)
				}
				hs[j] = h
				c[h>>shift]++
			}
		}
		hashes[i] = hs
		counts[i] = c
	})
	totals := make([]int64, shardCount)
	base := make([][]int64, len(in))
	for i := range in {
		b := make([]int64, shardCount)
		for s := 0; s < shardCount; s++ {
			b[s] = totals[s]
			totals[s] += int64(counts[i][s])
		}
		base[i] = b
	}
	shardRows := make([][]data.Row, shardCount)
	shardHashes := make([][]uint64, shardCount)
	for s := 0; s < shardCount; s++ {
		shardRows[s] = make([]data.Row, totals[s])
		shardHashes[s] = make([]uint64, totals[s])
	}
	parallelRange(len(in), func(i int) {
		if ctx.Err() != nil {
			return
		}
		pos := base[i]
		hs := hashes[i]
		for j, r := range in[i] {
			s := hs[j] >> shift
			shardRows[s][pos[s]] = r
			shardHashes[s][pos[s]] = hs[j]
			pos[s]++
		}
	})

	jt := &joinTable{shards: make([]joinShard, shardCount), shift: shift}
	parallelRange(shardCount, func(s int) {
		sh := newJoinShard(len(shardRows[s]))
		if ctx.Err() == nil {
			for k, r := range shardRows[s] {
				sh.insert(shardHashes[s][k], r)
			}
		}
		jt.shards[s] = sh
	})
	return jt
}

func (sh *joinShard) insert(h uint64, r data.Row) {
	idx := int32(len(sh.rows))
	sh.rows = append(sh.rows, buildRow{row: r, bytes: r.ByteSize()})
	sh.next = append(sh.next, -1)
	slots := sh.slots
	mask := uint64(len(slots) - 1) // power-of-two len, lets the compiler drop bounds checks
	pos := h & mask
	for {
		c := &slots[pos&mask]
		if c.head == 0 {
			*c = joinSlot{hash: h, head: idx + 1, tail: idx}
			return
		}
		if c.hash == h {
			sh.next[c.tail] = idx
			c.tail = idx
			return
		}
		pos++
	}
}

// chainFor returns the first row index of the candidate chain for hash h,
// or -1 when no build row hashed to h.
func (sh *joinShard) chainFor(h uint64) int32 {
	slots := sh.slots
	mask := uint64(len(slots) - 1)
	pos := h & mask
	for {
		c := slots[pos&mask]
		if c.head == 0 {
			return -1
		}
		if c.hash == h {
			return c.head - 1
		}
		pos++
	}
}

// applyJoin implements an inner equi-join. The build side is the right
// input; output rows are left ++ right, partitioned like the left input.
// Output bytes are accumulated from the build rows' cached sizes plus one
// lazy ByteSize per matching probe row — integer sums, so the total equals
// a fresh byte walk of the output exactly.
func applyJoin(ctx context.Context, n *plan.Node, left, right partitions, leftStats, rightStats *Stats) (partitions, int64, float64, error) {
	// Single int-like key columns (the common equi-join shape) hash via
	// intKeyHash on both sides; mixed or multi-column keys keep the
	// canonical row hash. Both schemes match exactly the pairs data.Equal
	// accepts, so the output is identical either way.
	fastKey := false
	if len(n.LeftKeys) == 1 && len(n.RightKeys) == 1 {
		lk := n.Children[0].Schema()[n.LeftKeys[0]].Kind
		rk := n.Children[1].Schema()[n.RightKeys[0]].Kind
		fastKey = lk == rk && lk.IntPayload()
	}
	jt := buildJoinTable(ctx, right, rightStats.Rows, n.RightKeys, fastKey)
	outWidth := len(n.Children[0].Schema()) + len(n.Children[1].Schema())
	out := make(partitions, len(left))
	bytesPer := make([]int64, len(left))
	var lk0, rk0 int
	if fastKey {
		lk0, rk0 = n.LeftKeys[0], n.RightKeys[0]
	}
	// Emit rows are carved from chunked slabs: one arena call reserves up
	// to joinSlabRows output rows' worth of Values, and the loop
	// sub-slices rows out of the local slab. This keeps the per-match path
	// free of function calls, so the compiler holds the slab cursor and
	// shard state in registers. Slabs carve only the rows the partition
	// still owes (slabRows), so a 5-row partition reserves 5 rows; only a
	// partition whose matches fall short of its inputs leaves zeroed
	// arena memory unused.
	probe := func(i int) {
		// Chunk-boundary cancellation poll. Skipping also protects the
		// probe from a partially built table: the build passes bail under
		// the same (monotone) cancelled context.
		if ctx.Err() != nil {
			return
		}
		part := left[i]
		// Hint one output row per input row; the arena grows only when
		// matches exceed that estimate.
		arena := data.NewRowArenaSized(len(part) * outWidth)
		rows := make([]data.Row, 0, len(part))
		var slab []data.Value
		fill := 0
		var pb int64
		if fastKey {
			// Key match is (kind, payload) identity — data.Equal for
			// same-kind int-like values — checked inline per candidate.
			for _, l := range part {
				lv := l[lk0]
				h := intKeyHash(lv)
				sh := &jt.shards[h>>jt.shift]
				lb := int64(-1)
				for idx := sh.chainFor(h); idx != -1; idx = sh.next[idx] {
					br := &sh.rows[idx]
					r := br.row
					if rv := r[rk0]; rv.K == lv.K && rv.I == lv.I {
						if fill+outWidth > len(slab) {
							slab = arena.NewRow(slabRows(len(part), len(rows)) * outWidth)
							fill = 0
						}
						nr := slab[fill : fill+outWidth : fill+outWidth]
						fill += outWidth
						copy(nr, l)
						copy(nr[len(l):], r)
						rows = append(rows, data.Row(nr))
						if lb < 0 {
							lb = l.ByteSize()
						}
						pb += lb + br.bytes
					}
				}
			}
		} else {
			for _, l := range part {
				h := l.Hash64(n.LeftKeys...)
				sh := &jt.shards[h>>jt.shift]
				lb := int64(-1)
				for idx := sh.chainFor(h); idx != -1; idx = sh.next[idx] {
					br := &sh.rows[idx]
					r := br.row
					if joinKeysMatch(l, r, n.LeftKeys, n.RightKeys) {
						if fill+outWidth > len(slab) {
							slab = arena.NewRow(slabRows(len(part), len(rows)) * outWidth)
							fill = 0
						}
						nr := slab[fill : fill+outWidth : fill+outWidth]
						fill += outWidth
						copy(nr, l)
						copy(nr[len(l):], r)
						rows = append(rows, data.Row(nr))
						if lb < 0 {
							lb = l.ByteSize()
						}
						pb += lb + br.bytes
					}
				}
			}
		}
		out[i] = rows
		bytesPer[i] = pb
	}
	if leftStats.Rows < parallelRowThreshold || len(left) == 1 {
		for i := range left {
			probe(i)
		}
	} else {
		parallelRange(len(left), probe)
	}
	var outBytes int64
	for _, b := range bytesPer {
		outBytes += b
	}
	cost := OperatorCost(n.Kind, leftStats.Rows, 0, 0) + float64(rightStats.Rows)*costPerRowJoinBuild
	return out, outBytes, cost, nil
}

func joinKeysMatch(l, r data.Row, lk, rk []int) bool {
	for i := range lk {
		if !data.Equal(l[lk[i]], r[rk[i]]) {
			return false
		}
	}
	return true
}
