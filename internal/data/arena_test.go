package data

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refHash64 is the original hash/fnv-based implementation of Value.Hash64,
// kept as the reference the inlined version must match bit for bit: every
// hash feeds a partition assignment, so a divergence would silently change
// every shuffle and join in the engine.
func refHash64(v Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.K)
	switch v.K {
	case KindString:
		h.Write(buf[:1])
		h.Write([]byte(v.S))
	case KindFloat:
		bits := math.Float64bits(v.F)
		if v.F == 0 {
			bits = 0
		}
		putUint64(buf[1:], bits)
		h.Write(buf[:])
	default:
		putUint64(buf[1:], uint64(v.I))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestValueHash64MatchesFNVReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []Value{
		Null(), Int(0), Int(-1), Int(math.MaxInt64), Float(0), Float(math.Copysign(0, -1)),
		Float(3.25), Float(math.Inf(1)), Bool(true), Bool(false), Date(19000),
		String_(""), String_("a"), String_("brand_z"),
	}
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			cases = append(cases, Int(r.Int63()-r.Int63()))
		case 1:
			cases = append(cases, Float(r.NormFloat64()*1e6))
		case 2:
			buf := make([]byte, r.Intn(40))
			r.Read(buf)
			cases = append(cases, String_(string(buf)))
		case 3:
			cases = append(cases, Date(int64(r.Intn(40000))))
		default:
			cases = append(cases, Bool(r.Intn(2) == 0))
		}
	}
	for _, v := range cases {
		if got, want := v.Hash64(), refHash64(v); got != want {
			t.Fatalf("Hash64(%v) = %#x, reference fnv = %#x", v, got, want)
		}
	}
}

func TestRowArenaIsolation(t *testing.T) {
	a := NewRowArenaSized(0)
	rows := make([]Row, 0, 1000)
	for i := 0; i < 1000; i++ {
		r := a.NewRow(3)
		r[0], r[1], r[2] = Int(int64(i)), String_("x"), Float(float64(i))
		rows = append(rows, r)
	}
	// Appending to one arena row must not clobber its neighbor.
	r0 := append(rows[0], Int(999))
	_ = r0
	for i, r := range rows {
		if r[0].AsInt() != int64(i) || r[2].AsFloat() != float64(i) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
	if got := a.Concat(rows[1], rows[2]); len(got) != 6 || got[0].AsInt() != 1 || got[3].AsInt() != 2 {
		t.Fatalf("Concat = %v", got)
	}
	if got := a.Extend(rows[3], Bool(true)); len(got) != 4 || !got[3].Truth() {
		t.Fatalf("Extend = %v", got)
	}
	if got := a.NewRow(0); len(got) != 0 {
		t.Fatalf("NewRow(0) = %v", got)
	}
	// Oversized rows larger than a block still work.
	big := a.NewRow(3 * arenaBlockValues)
	if len(big) != 3*arenaBlockValues {
		t.Fatalf("oversized row len = %d", len(big))
	}
}

func TestScratchRowArenaReleaseClearsBlocks(t *testing.T) {
	a := NewScratchRowArena()
	for i := 0; i < 3*arenaBlockValues; i++ {
		r := a.NewRow(1)
		r[0] = String_("pinned")
	}
	a.Release()
	// Whatever block the pool hands back next must be fully cleared.
	b := *blockPool.Get().(*[]Value)
	for i := range b[:cap(b)] {
		if b[:cap(b)][i].K != KindNull || b[:cap(b)][i].S != "" {
			t.Fatalf("pooled block not cleared at %d: %v", i, b[:cap(b)][i])
		}
	}
	bb := b[:0]
	blockPool.Put(&bb)
	if a.block != nil || a.full != nil {
		t.Fatal("arena retains blocks after Release")
	}
}

// TestRowArenaFirstBlockIsHint pins that an emit arena's first block holds
// exactly its hint, however small: a 3-row partition reserves 3 rows.
func TestRowArenaFirstBlockIsHint(t *testing.T) {
	for hint := 1; hint < 512; hint++ {
		a := NewRowArenaSized(hint)
		a.NewRow(1)
		if cap(a.block) != hint {
			t.Fatalf("hint %d: first block holds %d Values", hint, cap(a.block))
		}
	}
	// A hint <= 0 sizes the first block from the first request.
	for _, hint := range []int{0, -5} {
		a := NewRowArenaSized(hint)
		a.NewRow(7)
		if cap(a.block) != 7 {
			t.Fatalf("hint %d: first block holds %d Values, want 7", hint, cap(a.block))
		}
	}
}

// TestRowArenaGrowthDoubles pins the growth rule: past its hint an arena's
// next block is twice the last, capped at arenaBlockValues, and never
// smaller than the request that overflowed.
func TestRowArenaGrowthDoubles(t *testing.T) {
	a := NewRowArenaSized(10)
	var sizes []int
	for i := 0; i < 40_000; i++ {
		a.NewRow(1)
		if a.used == 1 { // the row opened a new block
			sizes = append(sizes, len(a.block))
		}
	}
	want := []int{10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120, 8192, 8192, 8192}
	if len(sizes) < len(want) {
		t.Fatalf("block sizes %v, want prefix %v", sizes, want)
	}
	for i, w := range want {
		if sizes[i] != w {
			t.Fatalf("block sizes %v, want prefix %v", sizes[:len(want)], want)
		}
	}

	// A request wider than the doubled block gets a block of its width.
	b := NewRowArenaSized(4)
	b.NewRow(4)
	b.NewRow(100)
	if len(b.block) != 100 {
		t.Fatalf("block after 100-wide request holds %d Values, want 100", len(b.block))
	}
	b.NewRow(1)
	if len(b.block) != 200 {
		t.Fatalf("block after a 100-Value block holds %d Values, want 200", len(b.block))
	}
	// An oversized block does not lift the cap on the one after it.
	b.NewRow(3 * arenaBlockValues)
	b.NewRow(1)
	if len(b.block) != arenaBlockValues {
		t.Fatalf("block after an oversized one holds %d Values, want %d", len(b.block), arenaBlockValues)
	}
}

// TestRowArenaNewRowsExactHintAllocatesOnce pins that a batch emit over an
// exactly hinted arena costs one block allocation and fills it.
func TestRowArenaNewRowsExactHintAllocatesOnce(t *testing.T) {
	const rows, width = 100, 5
	out := make([]Row, rows)
	arenas := make([]*RowArena, 101)
	for i := range arenas {
		arenas[i] = NewRowArenaSized(rows * width)
	}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		arenas[next].NewRows(out, width)
		next++
	})
	if allocs != 1 {
		t.Fatalf("NewRows over an exact hint: %.1f allocs, want 1", allocs)
	}
	if a := arenas[0]; len(a.block) != rows*width || a.used != rows*width {
		t.Fatalf("block %d Values with %d carved, want %d of %d", len(a.block), a.used, rows*width, rows*width)
	}
}
