package signature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
)

func logSchema() data.Schema {
	return data.Schema{
		{Name: "uid", Kind: data.KindInt},
		{Name: "page", Kind: data.KindString},
		{Name: "day", Kind: data.KindDate},
	}
}

// template builds one recurring instance of a pipeline parameterized by
// data guid and day.
func template(guid string, day int64) *plan.Node {
	return plan.Scan("logs", guid, logSchema()).
		Filter(expr.Eq(expr.C(2, "day"), expr.P("day", data.Date(day)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}}).
		Output("report")
}

func TestRecurringInstancesShareNormalizedSig(t *testing.T) {
	a := Of(template("guid-day1", 100))
	b := Of(template("guid-day2", 101))
	if a.Normalized != b.Normalized {
		t.Error("recurring instances must share normalized signature")
	}
	if a.Precise == b.Precise {
		t.Error("recurring instances must have distinct precise signatures")
	}
}

func TestIdenticalPlansShareBothSigs(t *testing.T) {
	a := Of(template("g", 100))
	b := Of(template("g", 100))
	if a != b {
		t.Errorf("identical plans differ: %+v vs %+v", a, b)
	}
}

func TestGUIDChangeInvalidatesPrecise(t *testing.T) {
	// The GDPR/update scenario from paper §8: new input data, same
	// template, same parameters — reuse must not match.
	a := Of(template("data-v1", 100))
	b := Of(template("data-v2", 100))
	if a.Precise == b.Precise {
		t.Error("new input GUID must change precise signature")
	}
	if a.Normalized != b.Normalized {
		t.Error("new input GUID must not change normalized signature")
	}
}

func TestStructuralChangeChangesBoth(t *testing.T) {
	a := Of(template("g", 100))
	mutated := plan.Scan("logs", "g", logSchema()).
		Filter(expr.Eq(expr.C(2, "day"), expr.P("day", data.Date(100)))).
		ShuffleHash([]int{1}, 4). // different shuffle key
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}}).
		Output("report")
	b := Of(mutated)
	if a.Normalized == b.Normalized || a.Precise == b.Precise {
		t.Error("structural change must alter both signatures")
	}
}

func TestSubgraphSignatureMatchesStandalone(t *testing.T) {
	// The signature of an inner node computed via AllSubgraphs must equal
	// the signature of that subgraph computed in isolation.
	root := template("g", 100)
	c := NewComputer()
	subs := c.AllSubgraphs(root)
	if len(subs) != 5 { // scan, filter, exchange, agg, output
		t.Fatalf("got %d subgraphs, want 5", len(subs))
	}
	for _, s := range subs {
		fresh := Of(s.Node)
		if fresh != s.Sig {
			t.Errorf("memoized sig differs from fresh sig for %v", s.Node)
		}
	}
}

func TestViewScanPreservesAncestorSigs(t *testing.T) {
	base := plan.Scan("logs", "g", logSchema()).
		Filter(expr.B(expr.OpGt, expr.C(0, "uid"), expr.Lit(data.Int(10))))
	sig := Of(base)
	top := base.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}})
	topSig := Of(top)

	vs := plan.ViewScan("/v/1", base.Schema(), sig.Precise, sig.Normalized)
	if got := Of(vs); got != sig {
		t.Errorf("view scan sig %+v, want %+v", got, sig)
	}
	rewritten := vs.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}})
	if got := Of(rewritten); got != topSig {
		t.Errorf("ancestor sig changed by rewrite: %+v vs %+v", got, topSig)
	}
}

func TestMaterializeAndSpoolTransparent(t *testing.T) {
	base := plan.Scan("logs", "g", logSchema()).ShuffleHash([]int{0}, 2)
	sig := Of(base)
	mat := base.Materialize("/v/x", sig.Precise, sig.Normalized, plan.PhysicalProps{})
	if Of(mat) != sig {
		t.Error("Materialize must not change signature")
	}
	// AllSubgraphs skips transparent nodes.
	c := NewComputer()
	subs := c.AllSubgraphs(mat.Output("o"))
	for _, s := range subs {
		if s.Node.Transparent() {
			t.Error("AllSubgraphs yielded a transparent node")
		}
	}
}

func TestHashAgreesWithFullEncoding(t *testing.T) {
	// The incremental (bottom-up) hash must distinguish exactly what the
	// full canonical encoding distinguishes, across random plan pairs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPlan(r)
		b := randomPlan(r)
		encEq := a.EncodeString(expr.Precise) == b.EncodeString(expr.Precise)
		sigEq := Of(a).Precise == Of(b).Precise
		if encEq != sigEq {
			return false
		}
		encEqN := a.EncodeString(expr.Normalized) == b.EncodeString(expr.Normalized)
		sigEqN := Of(a).Normalized == Of(b).Normalized
		return encEqN == sigEqN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// randomPlan builds a small random pipeline with deliberately few degrees
// of freedom so random pairs collide often enough to test both directions.
func randomPlan(r *rand.Rand) *plan.Node {
	guids := []string{"g1", "g2"}
	n := plan.Scan("t", guids[r.Intn(2)], logSchema())
	steps := r.Intn(4)
	for i := 0; i < steps; i++ {
		switch r.Intn(4) {
		case 0:
			n = n.Filter(expr.Eq(expr.C(0, "uid"), expr.Lit(data.Int(r.Int63n(2)))))
		case 1:
			n = n.ShuffleHash([]int{r.Intn(2)}, 4)
		case 2:
			n = n.HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggCount, Col: 1}})
			return n.Output("o")
		default:
			n = n.Sort([]int{r.Intn(2)}, nil)
		}
	}
	return n.Output("o")
}

func BenchmarkAllSubgraphs(b *testing.B) {
	root := template("g", 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewComputer()
		c.AllSubgraphs(root)
	}
}
