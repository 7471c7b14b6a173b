package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
)

// randomDAG builds a random plan, sometimes with a shared (spooled)
// subtree, covering every operator kind the generators emit.
func randomDAG(r *rand.Rand) *Node {
	schema := clicksSchema()
	n := Scan("t", []string{"g1", "g2"}[r.Intn(2)], schema)
	depth := 1 + r.Intn(5)
	for i := 0; i < depth; i++ {
		switch r.Intn(9) {
		case 0:
			n = n.Filter(expr.B(expr.OpGt, expr.C(0, "user"), expr.Lit(data.Int(r.Int63n(10)))))
		case 1:
			n = n.ShuffleHash([]int{0}, 1+r.Intn(8))
		case 2:
			n = n.RangePartition([]int{0}, 1+r.Intn(4))
		case 3:
			n = n.Sort([]int{r.Intn(2)}, []bool{r.Intn(2) == 0})
		case 4:
			n = n.HashAgg([]int{0}, []AggSpec{{Fn: AggFn(r.Intn(5)), Col: r.Intn(2)}})
		case 5:
			n = n.Process("udo", []string{"v1", "v2"}[r.Intn(2)])
		case 6:
			n = n.Top(int64(1 + r.Intn(50)))
		case 7:
			// Shared subtree: one node feeding both sides of a self-join.
			n = n.HashJoin(n, []int{0}, []int{0})
		default:
			n = n.ProjectCols(0, 1)
		}
	}
	return n.Output("o")
}

func TestCloneAndRewritePreserveEncodingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDAG(r)
		pre := p.EncodeString(expr.Precise)
		norm := p.EncodeString(expr.Normalized)

		c := Clone(p)
		if c.EncodeString(expr.Precise) != pre || c.EncodeString(expr.Normalized) != norm {
			return false
		}
		if Count(c) != Count(p) {
			return false
		}
		// The original is untouched.
		return p.EncodeString(expr.Precise) == pre
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemaStableUnderCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDAG(r)
		c := Clone(p)
		return p.Schema().String() == c.Schema().String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDerivePropsDeterministicProperty(t *testing.T) {
	// DeriveProps is a pure function of structure: equal plans derive
	// equal properties, and deriving twice agrees.
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a, b := randomDAG(r1), randomDAG(r2)
		pa1 := DeriveProps(a)
		pa2 := DeriveProps(a)
		pb := DeriveProps(b)
		return propsEqual(pa1, pa2) && propsEqual(pa1, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func propsEqual(a, b PhysicalProps) bool {
	if a.Part.Kind != b.Part.Kind || a.Part.Count != b.Part.Count {
		return false
	}
	if !intsEqual(a.Part.Cols, b.Part.Cols) || !intsEqual(a.Sort.Cols, b.Sort.Cols) {
		return false
	}
	if len(a.Sort.Desc) != len(b.Sort.Desc) {
		return false
	}
	for i := range a.Sort.Desc {
		if a.Sort.Desc[i] != b.Sort.Desc[i] {
			return false
		}
	}
	return true
}

func TestWalkVisitsEachNodeOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDAG(r)
		seen := map[*Node]int{}
		Walk(p, func(n *Node) { seen[n]++ })
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return len(seen) == Count(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
