package data

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Table is a named, partitioned row set. GUID identifies the concrete data
// version: recurring jobs read the "same" table each instance but the GUID
// changes with every data delivery, which is what distinguishes the precise
// signature of one instance from the next.
type Table struct {
	Name       string
	GUID       string
	Schema     Schema
	Partitions [][]Row

	// Lazily computed NumRows/ByteSize, stored as n+1 so the zero value
	// means "stale" even for literal Table construction. AppendHash
	// invalidates; callers that write Partitions directly must finish doing
	// so before the first NumRows/ByteSize call. Atomics because concurrent
	// jobs scan shared catalog tables.
	cachedRows  atomic.Int64
	cachedBytes atomic.Int64
}

// NewTable creates a table with the given number of empty partitions.
func NewTable(name, guid string, schema Schema, partitions int) *Table {
	if partitions < 1 {
		partitions = 1
	}
	return &Table{
		Name:       name,
		GUID:       guid,
		Schema:     schema,
		Partitions: make([][]Row, partitions),
	}
}

// NumRows returns the total row count across partitions (cached between
// appends — extracts re-read table metadata on every job).
func (t *Table) NumRows() int64 {
	if c := t.cachedRows.Load(); c > 0 {
		return c - 1
	}
	var n int64
	for _, p := range t.Partitions {
		n += int64(len(p))
	}
	t.cachedRows.Store(n + 1)
	return n
}

// ByteSize returns the approximate total size of the table in bytes
// (cached between appends, like NumRows).
func (t *Table) ByteSize() int64 {
	if c := t.cachedBytes.Load(); c > 0 {
		return c - 1
	}
	var n int64
	for _, p := range t.Partitions {
		for _, r := range p {
			n += r.ByteSize()
		}
	}
	t.cachedBytes.Store(n + 1)
	return n
}

// AppendHash appends a row into the partition chosen by hashing the given
// key columns, or round-robin via rr when keys is empty.
func (t *Table) AppendHash(row Row, keys []int, rr *int) {
	var p int
	if len(keys) == 0 {
		p = *rr % len(t.Partitions)
		*rr++
	} else {
		p = int(row.Hash64(keys...) % uint64(len(t.Partitions)))
	}
	t.Partitions[p] = append(t.Partitions[p], row)
	t.cachedRows.Store(0)
	t.cachedBytes.Store(0)
}

// Generator produces deterministic synthetic rows for a schema; it backs
// the workload and TPC-DS data generators.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying deterministic source for callers that need
// custom distributions (e.g. Zipf skew in the workload generator).
func (g *Generator) Rand() *rand.Rand { return g.rng }

// Row generates one random row for the schema. Integer columns draw from
// [0, card); string columns pick one of card distinct tokens; dates draw
// from a 4-year window; floats are uniform in [0, 1000).
func (g *Generator) Row(schema Schema, card int64) Row {
	if card < 1 {
		card = 1
	}
	row := make(Row, len(schema))
	for i, c := range schema {
		switch c.Kind {
		case KindInt:
			row[i] = Int(g.rng.Int63n(card))
		case KindFloat:
			row[i] = Float(float64(g.rng.Int63n(1000000)) / 1000.0)
		case KindString:
			row[i] = String_(fmt.Sprintf("%s_%d", c.Name, g.rng.Int63n(card)))
		case KindBool:
			row[i] = Bool(g.rng.Intn(2) == 0)
		case KindDate:
			row[i] = Date(17000 + g.rng.Int63n(1461))
		default:
			row[i] = Null()
		}
	}
	return row
}
