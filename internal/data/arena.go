package data

import "sync"

// RowArena allocates many short-lived-to-build, long-lived-to-hold rows out
// of Value blocks, replacing one make(Row, w) per emitted row with one
// block allocation per arena (or a few, if it outgrows its hint). Operators
// that emit a fresh row per input row (project, join, process, reduce,
// aggregate emit) each build their output through an arena.
//
// Sizing: an emit arena's first block holds exactly its hint, which the
// kernel derives from the rows it will emit, so a 3-row partition reserves
// 3 rows. An arena that outgrows its block takes a new one twice the size
// of the last, capped at arenaBlockValues, and never smaller than the
// request that overflowed.
//
// Ownership rules (DESIGN.md §9):
//
//   - An arena is single-writer: one goroutine fills it. Parallel kernels
//     use one arena per partition, never a shared one.
//   - Rows returned by NewRow alias the arena's blocks. An emit arena
//     (NewRowArenaSized) must never be released: its rows escape into
//     operator outputs, job results, and materialized views, so its blocks
//     are owned by the garbage collector once the operator returns.
//   - A scratch arena (NewScratchRowArena) recycles its blocks through a
//     process-wide sync.Pool on Release. It is only for rows that provably
//     do not outlive the operator — e.g. aggregate group keys, whose values
//     are copied into output rows at emit time. Releasing an arena whose
//     rows escaped is a use-after-free-by-pool bug; when in doubt, use an
//     emit arena.
type RowArena struct {
	block   []Value   // current block, full length; used marks the carved prefix
	used    int       // Values carved from block so far
	full    [][]Value // exhausted blocks (sliced to their used prefix), for Release
	pooled  bool      // blocks come from (and return to) blockPool
	firstSz int       // size of the first block; later blocks double the last
}

// arenaBlockValues caps the size of a growth block (320 KiB at 40 bytes
// per Value) and is the size of every pooled scratch block.
const arenaBlockValues = 8192

var blockPool = sync.Pool{
	New: func() any {
		b := make([]Value, 0, arenaBlockValues)
		return &b
	},
}

// NewRowArenaSized returns an emit arena whose blocks are garbage-collected
// with the rows allocated from them and whose first block holds exactly
// hint Values, the Values the kernel expects to emit. A hint <= 0 sizes the
// first block from the first request.
func NewRowArenaSized(hint int) *RowArena {
	return &RowArena{firstSz: hint}
}

// NewScratchRowArena returns an arena backed by pooled full-size blocks.
// The caller must call Release exactly once, after the last row allocated
// from it is dead.
func NewScratchRowArena() *RowArena {
	return &RowArena{pooled: true, firstSz: arenaBlockValues}
}

// NewRow returns a zeroed row of the given width carved from the arena.
// The row has full capacity == width, so appending to it can never bleed
// into a neighboring row. The carve fast path is shaped to inline into
// per-row emit loops; only growth (and the width<=0 edge) takes a call.
func (a *RowArena) NewRow(width int) Row {
	off := a.used
	end := off + width
	if width <= 0 || end > len(a.block) {
		return a.newRowSlow(width)
	}
	a.used = end
	return Row(a.block[off:end:end])
}

func (a *RowArena) newRowSlow(width int) Row {
	if width <= 0 {
		return Row{}
	}
	a.grow(width)
	a.used = width
	return Row(a.block[0:width:width])
}

// NewRows fills out with len(out) fresh zeroed rows of the given width —
// the batch form of NewRow for kernels that emit one output row per input
// row (compiled projection). Rows come out identical to len(out) NewRow
// calls (full capacity == width, carved in order), but the cursor bumps
// once per block instead of once per row. When a block runs out, the next
// one holds at least everything still owed, so an exactly hinted emit arena
// serves the whole batch from a single allocation.
func (a *RowArena) NewRows(out []Row, width int) {
	if width <= 0 {
		for i := range out {
			out[i] = Row{}
		}
		return
	}
	i := 0
	for i < len(out) {
		avail := (len(a.block) - a.used) / width
		if avail == 0 {
			a.grow((len(out) - i) * width)
			avail = len(a.block) / width
		}
		n := len(out) - i
		if n > avail {
			n = avail
		}
		off := a.used
		for j := 0; j < n; j++ {
			end := off + width
			out[i+j] = Row(a.block[off:end:end])
			off = end
		}
		a.used = off
		i += n
	}
}

// Concat returns a new arena row holding a ++ b — the join emit shape.
func (a *RowArena) Concat(x, y Row) Row {
	nr := a.NewRow(len(x) + len(y))
	copy(nr, x)
	copy(nr[len(x):], y)
	return nr
}

// Extend returns a new arena row holding r ++ extra — the process/reduce
// emit shape.
func (a *RowArena) Extend(r Row, extra Value) Row {
	nr := a.NewRow(len(r) + 1)
	copy(nr, r)
	nr[len(r)] = extra
	return nr
}

func (a *RowArena) grow(width int) {
	if a.block != nil && a.pooled {
		a.full = append(a.full, a.block[:a.used])
	}
	size := a.firstSz
	if a.block != nil {
		size = min(2*len(a.block), arenaBlockValues)
	}
	size = max(size, width)
	if a.pooled && size <= arenaBlockValues {
		b := *blockPool.Get().(*[]Value)
		a.block = b[:cap(b)]
	} else {
		a.block = make([]Value, size)
	}
	a.used = 0
}

// Release returns a scratch arena's blocks to the pool. Blocks are cleared
// first so pooled memory cannot pin strings referenced by dead rows. On an
// emit (non-pooled) arena Release is a no-op.
func (a *RowArena) Release() {
	if !a.pooled {
		return
	}
	for _, b := range a.full {
		putBlock(b)
	}
	if a.block != nil {
		putBlock(a.block[:a.used])
	}
	a.full = nil
	a.block = nil
	a.used = 0
}

func putBlock(b []Value) {
	if cap(b) < arenaBlockValues {
		return // oversized-row one-off or undersized block; let GC take it
	}
	used := b[:len(b)]
	for i := range used {
		used[i] = Value{}
	}
	b = b[:0]
	blockPool.Put(&b)
}
