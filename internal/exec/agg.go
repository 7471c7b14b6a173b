package exec

import (
	"context"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// agg.go implements the partition-parallel hash aggregate. Each input
// partition is pre-aggregated into a local group table, and the partials
// are merged into a global table in partition-index order — a fixed merge
// order, so the result is a pure function of the input regardless of which
// pool worker ran which partition. Group state is columnar: one strided
// slice per accumulator kind instead of a 6-slice allocation per group,
// and group keys live in a pooled scratch arena (their values are copied
// into output rows at emit, so the keys never escape the operator).

// aggTable is a group-by accumulator table. Groups are identified by dense
// int32 ids in first-encounter order; per-group accumulator i lives at
// offset id*nAggs+i of the strided slices. Lookup goes through an
// open-addressed slot table keyed by the (already murmur-finalized) group
// hash — linear probing on (hash & mask) with equal-hash entries resolved
// by key comparison, which skips the re-hash and bucket machinery a Go map
// would pay on every row.
type aggTable struct {
	n     *plan.Node
	nAggs int
	isFlt []bool // per agg spec: float-typed input column

	// fastCol >= 0 selects the single-int-like-column path: groups are
	// found via intKeyHash probes, and the canonical row hash — needed
	// only for output partitioning — is computed once per group instead
	// of once per input row.
	fastCol int

	keys       []data.Row // group key rows, scratch-arena allocated
	hashes     []uint64   // canonical group-key hash, for output partitioning
	slotHashes []uint64   // probe hash per group (== hashes off the fast path)

	// Strided accumulators; slices a plan's agg specs never read stay nil.
	sums   []float64
	ints   []int64
	counts []int64
	mins   []data.Value
	maxs   []data.Value

	slots []int32 // open-addressed index: groupID+1, 0 = empty
	mask  uint64

	arena *data.RowArena // scratch arena owning the key rows
}

func newAggTable(n *plan.Node, inSchema data.Schema, hint int) *aggTable {
	if hint < 4 {
		hint = 4
	}
	size := nextPow2(2 * hint)
	t := &aggTable{
		n:          n,
		nAggs:      len(n.Aggs),
		isFlt:      make([]bool, len(n.Aggs)),
		fastCol:    -1,
		keys:       make([]data.Row, 0, hint),
		hashes:     make([]uint64, 0, hint),
		slotHashes: make([]uint64, 0, hint),
		counts:     make([]int64, 0, hint*len(n.Aggs)),
		slots:      make([]int32, size),
		mask:       uint64(size - 1),
		arena:      data.NewScratchRowArena(),
	}
	if len(n.GroupBy) == 1 && inSchema[n.GroupBy[0]].Kind.IntPayload() {
		t.fastCol = n.GroupBy[0]
	}
	var needSum, needMin, needMax bool
	for i, spec := range n.Aggs {
		t.isFlt[i] = inSchema[spec.Col].Kind == data.KindFloat
		switch spec.Fn {
		case plan.AggSum, plan.AggAvg:
			needSum = true
		case plan.AggMin:
			needMin = true
		case plan.AggMax:
			needMax = true
		}
	}
	if needSum {
		t.sums = make([]float64, 0, hint*len(n.Aggs))
		t.ints = make([]int64, 0, hint*len(n.Aggs))
	}
	if needMin {
		t.mins = make([]data.Value, 0, hint*len(n.Aggs))
	}
	if needMax {
		t.maxs = make([]data.Value, 0, hint*len(n.Aggs))
	}
	return t
}

// growSlots doubles the slot table and re-places every group. Placement
// depends only on the (deterministic) group creation order, never on
// scheduling.
func (t *aggTable) growSlots() {
	size := len(t.slots) * 2
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for id, h := range t.slotHashes {
		pos := h & mask
		for slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		slots[pos] = int32(id) + 1
	}
	t.slots, t.mask = slots, mask
}

// release returns the key arena's blocks to the pool. Call only after the
// table's keys are dead (post-emit, post-merge).
func (t *aggTable) release() { t.arena.Release() }

// addGroup appends a group with canonical hash h and probe hash slotH.
func (t *aggTable) addGroup(h, slotH uint64, key data.Row) int32 {
	id := int32(len(t.keys))
	t.keys = append(t.keys, key)
	t.hashes = append(t.hashes, h)
	t.slotHashes = append(t.slotHashes, slotH)
	for i := 0; i < t.nAggs; i++ {
		t.counts = append(t.counts, 0)
	}
	if t.sums != nil {
		for i := 0; i < t.nAggs; i++ {
			t.sums = append(t.sums, 0)
			t.ints = append(t.ints, 0)
		}
	}
	if t.mins != nil {
		for i := 0; i < t.nAggs; i++ {
			t.mins = append(t.mins, data.Value{})
		}
	}
	if t.maxs != nil {
		for i := 0; i < t.nAggs; i++ {
			t.maxs = append(t.maxs, data.Value{})
		}
	}
	return id
}

// groupForRow finds or creates the group for input row r, comparing the
// GroupBy columns against candidate keys along the probe sequence.
func (t *aggTable) groupForRow(h uint64, r data.Row) int32 {
	pos := h & t.mask
	for {
		c := t.slots[pos]
		if c == 0 {
			id := t.addGroupFromRow(h, r)
			t.slots[pos] = id + 1
			if len(t.keys)*4 > len(t.slots)*3 {
				t.growSlots()
			}
			return id
		}
		if id := c - 1; t.slotHashes[id] == h && keyEqual(t.keys[id], r, t.n.GroupBy) {
			return id
		}
		pos = (pos + 1) & t.mask
	}
}

// groupForIntRow is groupForRow for the single-int-like-key layout: probes
// by intKeyHash and compares the key by (kind, payload) identity, which is
// exactly data.Equal for int-like same-column values. The canonical hash
// is computed only when the group is first created.
func (t *aggTable) groupForIntRow(r data.Row) int32 {
	v := r[t.fastCol]
	h := intKeyHash(v)
	pos := h & t.mask
	for {
		c := t.slots[pos]
		if c == 0 {
			key := t.arena.NewRow(1)
			key[0] = v
			id := t.addGroup(r.Hash64(t.n.GroupBy...), h, key)
			t.slots[pos] = id + 1
			if len(t.keys)*4 > len(t.slots)*3 {
				t.growSlots()
			}
			return id
		}
		if id := c - 1; t.slotHashes[id] == h {
			if k := t.keys[id][0]; k.K == v.K && k.I == v.I {
				return id
			}
		}
		pos = (pos + 1) & t.mask
	}
}

func (t *aggTable) addGroupFromRow(h uint64, r data.Row) int32 {
	key := t.arena.NewRow(len(t.n.GroupBy))
	for i, g := range t.n.GroupBy {
		key[i] = r[g]
	}
	return t.addGroup(h, h, key)
}

// groupForKey finds or creates the group for an already-materialized key
// row (the merge path, probed by canonical hash). The key is copied into
// this table's arena on create, so the donor table can be released
// independently.
func (t *aggTable) groupForKey(h uint64, key data.Row) int32 {
	pos := h & t.mask
	for {
		c := t.slots[pos]
		if c == 0 {
			id := t.addGroup(h, h, t.arena.NewRow(len(key)))
			copy(t.keys[id], key)
			t.slots[pos] = id + 1
			if len(t.keys)*4 > len(t.slots)*3 {
				t.growSlots()
			}
			return id
		}
		if id := c - 1; t.slotHashes[id] == h && keyRowsEqual(t.keys[id], key) {
			return id
		}
		pos = (pos + 1) & t.mask
	}
}

func keyRowsEqual(a, b data.Row) bool {
	for i := range a {
		if !data.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// update folds input row r into group id, with the exact semantics of the
// old per-group aggState.update (nulls skipped except under COUNT; MIN/MAX
// replace on strict inequality only, keeping the first-encountered value
// among Compare-equal candidates).
func (t *aggTable) update(id int32, r data.Row) {
	base := int(id) * t.nAggs
	for i, spec := range t.n.Aggs {
		v := r[spec.Col]
		if v.IsNull() && spec.Fn != plan.AggCount {
			continue
		}
		o := base + i
		switch spec.Fn {
		case plan.AggSum, plan.AggAvg:
			t.sums[o] += v.AsFloat()
			t.ints[o] += v.AsInt()
			t.counts[o]++
		case plan.AggCount:
			t.counts[o]++
		case plan.AggMin:
			if t.counts[o] == 0 || data.Compare(v, t.mins[o]) < 0 {
				t.mins[o] = v
			}
			t.counts[o]++
		case plan.AggMax:
			if t.counts[o] == 0 || data.Compare(v, t.maxs[o]) > 0 {
				t.maxs[o] = v
			}
			t.counts[o]++
		}
	}
}

// mergeFrom folds a partial table into t. Partial groups are visited in
// their creation order (= that partition's scan order), and callers merge
// partitions in index order, so the global first-encounter order — which
// picks the byte-level representative key for Compare-equal values — is
// the same partition-major order the serial scan produced. MIN/MAX merge
// keeps t's value on Compare-ties, matching sequential strict-inequality
// replacement; SUM/AVG partial sums are combined in partition order (see
// DESIGN.md §9 on float reassociation).
func (t *aggTable) mergeFrom(o *aggTable) {
	for og := range o.keys {
		id := t.groupForKey(o.hashes[og], o.keys[og])
		ob := og * o.nAggs
		base := int(id) * t.nAggs
		for i, spec := range t.n.Aggs {
			po, to := ob+i, base+i
			switch spec.Fn {
			case plan.AggSum, plan.AggAvg:
				t.sums[to] += o.sums[po]
				t.ints[to] += o.ints[po]
				t.counts[to] += o.counts[po]
			case plan.AggCount:
				t.counts[to] += o.counts[po]
			case plan.AggMin:
				if o.counts[po] > 0 {
					if t.counts[to] == 0 || data.Compare(o.mins[po], t.mins[to]) < 0 {
						t.mins[to] = o.mins[po]
					}
					t.counts[to] += o.counts[po]
				}
			case plan.AggMax:
				if o.counts[po] > 0 {
					if t.counts[to] == 0 || data.Compare(o.maxs[po], t.maxs[to]) > 0 {
						t.maxs[to] = o.maxs[po]
					}
					t.counts[to] += o.counts[po]
				}
			}
		}
	}
}

// emit renders group id as an output row (key columns then aggregates)
// allocated from the emit arena.
func (t *aggTable) emit(id int32, arena *data.RowArena) data.Row {
	key := t.keys[id]
	out := arena.NewRow(len(key) + t.nAggs)
	copy(out, key)
	base := int(id) * t.nAggs
	for i, spec := range t.n.Aggs {
		o := base + i
		var v data.Value
		switch spec.Fn {
		case plan.AggSum:
			if t.isFlt[i] {
				v = data.Float(t.sums[o])
			} else {
				v = data.Int(t.ints[o])
			}
		case plan.AggAvg:
			if t.counts[o] == 0 {
				v = data.Null()
			} else {
				v = data.Float(t.sums[o] / float64(t.counts[o]))
			}
		case plan.AggCount:
			v = data.Int(t.counts[o])
		case plan.AggMin:
			v = normAggValue(t.mins[o])
		case plan.AggMax:
			v = normAggValue(t.maxs[o])
		}
		out[len(key)+i] = v
	}
	return out
}

// normAggValue maps date/bool extremes to ints per the schema derivation.
func normAggValue(v data.Value) data.Value {
	switch v.K {
	case data.KindDate, data.KindBool:
		return data.Int(v.I)
	default:
		return v
	}
}

func keyEqual(key data.Row, r data.Row, groupBy []int) bool {
	for i, g := range groupBy {
		if !data.Equal(key[i], r[g]) {
			return false
		}
	}
	return true
}

func applyHashAgg(ctx context.Context, n *plan.Node, in partitions, inStats *Stats) (partitions, int64, float64, error) {
	inSchema := n.Children[0].Schema()
	scan := func(t *aggTable, part []data.Row) {
		// Chunk-boundary cancellation poll: a cancelled job leaves the
		// table partial; the vertex checkpoint discards it.
		if ctx.Err() != nil {
			return
		}
		if t.fastCol >= 0 {
			for _, r := range part {
				t.update(t.groupForIntRow(r), r)
			}
		} else {
			for _, r := range part {
				t.update(t.groupForRow(r.Hash64(n.GroupBy...), r), r)
			}
		}
	}
	var global *aggTable
	if inStats.Rows < parallelRowThreshold || len(in) == 1 {
		// Serial single-pass build over the partition-major scan order.
		global = newAggTable(n, inSchema, int(inStats.Rows/8)+16)
		for _, part := range in {
			scan(global, part)
		}
	} else {
		// Parallel pre-aggregation, then a deterministic partition-order
		// merge into a fresh global table pre-sized for the full input.
		// Merging partition 0 first reproduces the serial first-encounter
		// group order, and folding each partial's sums into zeroed global
		// accumulators adds exactly the values the reuse-partial-0 scheme
		// produced (0 + x == x in IEEE arithmetic for every x).
		partials := make([]*aggTable, len(in))
		parallelRange(len(in), func(i int) {
			t := newAggTable(n, inSchema, len(in[i])/8+16)
			scan(t, in[i])
			partials[i] = t
		})
		global = newAggTable(n, inSchema, int(inStats.Rows/8)+16)
		for _, p := range partials {
			global.mergeFrom(p)
			p.release()
		}
	}

	count := len(in)
	if count < 1 {
		count = 1
	}
	out := make(partitions, count)
	outKeys := make([]int, len(n.GroupBy))
	for i := range outKeys {
		outKeys[i] = i
	}
	// The emitted row starts with the key columns, so its hash over outKeys
	// equals the cached group-key hash — no rehash; a counting pass sizes
	// each output partition exactly before any row is emitted.
	targets := make([]int32, len(global.keys))
	sizes := make([]int64, count)
	if len(outKeys) > 0 {
		for id, h := range global.hashes {
			p := int32(h % uint64(count))
			targets[id] = p
			sizes[p]++
		}
	} else {
		sizes[0] = int64(len(global.keys))
	}
	for p := range out {
		if sizes[p] > 0 {
			out[p] = make([]data.Row, 0, sizes[p])
		}
	}
	emitArena := data.NewRowArenaSized(len(global.keys) * (len(n.GroupBy) + global.nAggs))
	for id := range global.keys {
		p := targets[id]
		out[p] = append(out[p], global.emit(int32(id), emitArena))
	}
	global.release()
	// Emit each partition in group-key order so execution is deterministic
	// (distinct groups always differ on some key column, so the order is a
	// strict total order independent of emit order).
	parallelRange(len(out), func(i int) {
		data.SortRows(out[i], outKeys, nil)
	})
	return out, -1, OperatorCost(n.Kind, inStats.Rows, 0, 0), nil
}
