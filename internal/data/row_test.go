package data

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleSchema() Schema {
	return Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "amount", Kind: KindFloat},
	}
}

func TestRowHashSubset(t *testing.T) {
	a := Row{Int(1), String_("x"), Float(3)}
	b := Row{Int(1), String_("y"), Float(4)}
	if a.Hash64(0) != b.Hash64(0) {
		t.Error("same key column should hash equal")
	}
	if a.Hash64() == b.Hash64() {
		t.Error("full-row hashes of different rows should differ")
	}
}

func TestRowHashMixIsOrderSensitive(t *testing.T) {
	// Symmetric keys must not collide: (a,b) vs (b,a).
	ab := Row{Int(7), Int(42)}
	ba := Row{Int(42), Int(7)}
	if ab.Hash64() == ba.Hash64() {
		t.Error("swapped key columns collide")
	}
	// A duplicated key column must not cancel itself out: hashing the same
	// column twice must still depend on the column's value.
	x := Row{Int(7)}
	y := Row{Int(42)}
	if x.Hash64(0, 0) == y.Hash64(0, 0) {
		t.Error("duplicated key column cancels to a value-independent hash")
	}
	if x.Hash64(0, 0) == (Row{}).Hash64() {
		t.Error("duplicated key column collapses to the empty-row hash")
	}
}

func TestRowHashLowBitsSpread(t *testing.T) {
	// Shuffle partitioning buckets rows with Hash64 % count for small
	// power-of-two counts, so the low bits must avalanche. Sequential keys
	// spread over 16 buckets must come out near-uniform.
	const n, buckets = 4096, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[Row{Int(int64(i))}.Hash64(0)%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d of %d rows (want ≈%d)", b, c, n, want)
		}
	}
}

func TestCompareRowsAndSort(t *testing.T) {
	rows := []Row{
		{Int(2), String_("b")},
		{Int(1), String_("z")},
		{Int(2), String_("a")},
	}
	SortRows(rows, []int{0, 1}, nil)
	want := []Row{{Int(1), String_("z")}, {Int(2), String_("a")}, {Int(2), String_("b")}}
	for i := range want {
		if CompareRows(rows[i], want[i], []int{0, 1}, nil) != 0 {
			t.Fatalf("sorted[%d] = %v, want %v", i, rows[i], want[i])
		}
	}
	SortRows(rows, []int{0}, []bool{true})
	if rows[0][0].AsInt() != 2 || rows[2][0].AsInt() != 1 {
		t.Errorf("descending sort wrong: %v", rows)
	}
}

func TestRowsEqualMultiset(t *testing.T) {
	a := []Row{{Int(1)}, {Int(2)}, {Int(2)}}
	b := []Row{{Int(2)}, {Int(1)}, {Int(2)}}
	c := []Row{{Int(1)}, {Int(1)}, {Int(2)}}
	if !RowsEqual(a, b) {
		t.Error("permutations should be equal")
	}
	if RowsEqual(a, c) {
		t.Error("different multiplicities should differ")
	}
	if RowsEqual(a, a[:2]) {
		t.Error("different lengths should differ")
	}
}

func TestSchemaOps(t *testing.T) {
	s := sampleSchema()
	if s.ColumnIndex("name") != 1 || s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	p := s.Project([]int{2, 0})
	if p[0].Name != "amount" || p[1].Name != "id" {
		t.Errorf("Project wrong: %v", p)
	}
	cat := s.Concat(Schema{{Name: "extra", Kind: KindBool}})
	if len(cat) != 4 || cat[3].Name != "extra" {
		t.Errorf("Concat wrong: %v", cat)
	}
	if s.String() != "id:int, name:string, amount:float" {
		t.Errorf("String() = %q", s.String())
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "id" {
		t.Errorf("Names wrong: %v", names)
	}
}

func TestTableAppendAndValidate(t *testing.T) {
	tab := NewTable("t", "g1", sampleSchema(), 4)
	rr := 0
	for i := 0; i < 100; i++ {
		tab.AppendHash(Row{Int(int64(i)), String_("n"), Float(1)}, []int{0}, &rr)
	}
	if tab.NumRows() != 100 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if err := validate(tab); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Hash partitioning must be deterministic: same key, same partition.
	probe := Row{Int(7), String_("x"), Float(0)}
	p := int(probe.Hash64(0) % 4)
	found := false
	for _, r := range tab.Partitions[p] {
		if r[0].AsInt() == 7 {
			found = true
		}
	}
	if !found {
		t.Error("row with key 7 not in its hash partition")
	}
	// validate catches kind violations.
	tab.Partitions[0] = append(tab.Partitions[0], Row{String_("bad"), String_("n"), Float(1)})
	if validate(tab) == nil {
		t.Error("validate should reject wrong-kind row")
	}
}

// validate checks that every row matches the schema arity and kinds (NULL
// is allowed in any column) and returns the first violation.
func validate(t *Table) error {
	for pi, p := range t.Partitions {
		for ri, r := range p {
			if len(r) != len(t.Schema) {
				return fmt.Errorf("partition %d row %d: arity %d, schema wants %d", pi, ri, len(r), len(t.Schema))
			}
			for ci, v := range r {
				if v.K != KindNull && v.K != t.Schema[ci].Kind {
					return fmt.Errorf("partition %d row %d col %s: kind %s, schema wants %s",
						pi, ri, t.Schema[ci].Name, v.K, t.Schema[ci].Kind)
				}
			}
		}
	}
	return nil
}

func TestTableRoundRobin(t *testing.T) {
	tab := NewTable("t", "g", Schema{{Name: "a", Kind: KindInt}}, 3)
	rr := 0
	for i := 0; i < 9; i++ {
		tab.AppendHash(Row{Int(int64(i))}, nil, &rr)
	}
	for p := range tab.Partitions {
		if len(tab.Partitions[p]) != 3 {
			t.Errorf("partition %d has %d rows, want 3", p, len(tab.Partitions[p]))
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7).Row(sampleSchema(), 100)
	b := NewGenerator(7).Row(sampleSchema(), 100)
	if !RowsEqual([]Row{a}, []Row{b}) {
		t.Errorf("same seed produced %v vs %v", a, b)
	}
	tab := NewTable("t", "g", sampleSchema(), 2)
	g, rr := NewGenerator(3), 0
	for i := 0; i < 50; i++ {
		tab.AppendHash(g.Row(tab.Schema, 10), []int{0}, &rr)
	}
	if tab.NumRows() != 50 {
		t.Errorf("generated %d rows", tab.NumRows())
	}
	if err := validate(tab); err != nil {
		t.Errorf("generated table invalid: %v", err)
	}
}

func TestSortRowsIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Int(r.Int63n(10)), Int(r.Int63n(10))}
		}
		before := append([]Row(nil), rows...)
		SortRows(rows, []int{0}, nil)
		// Sorted output is a permutation of the input and ordered on key 0.
		if !RowsEqual(before, rows) {
			return false
		}
		for i := 1; i < len(rows); i++ {
			if Compare(rows[i-1][0], rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
