package plan

import (
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
)

func clicksSchema() data.Schema {
	return data.Schema{
		{Name: "user", Kind: data.KindInt},
		{Name: "url", Kind: data.KindString},
		{Name: "ts", Kind: data.KindDate},
		{Name: "dur", Kind: data.KindFloat},
	}
}

func usersSchema() data.Schema {
	return data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "region", Kind: data.KindString},
	}
}

// samplePlan builds a representative pipeline:
// scan -> filter(date param) -> shuffle(user) -> agg -> join users -> output.
func samplePlan(guid string, day int64) *Node {
	clicks := Scan("clicks", guid, clicksSchema()).
		Filter(expr.Eq(expr.C(2, "ts"), expr.P("day", data.Date(day)))).
		ShuffleHash([]int{0}, 8).
		HashAgg([]int{0}, []AggSpec{{Fn: AggSum, Col: 3}, {Fn: AggCount, Col: 1}})
	users := Scan("users", "uguid", usersSchema()).ShuffleHash([]int{0}, 8)
	return clicks.HashJoin(users, []int{0}, []int{0}).Output("daily_report")
}

func TestSchemaDerivation(t *testing.T) {
	s := Scan("clicks", "g", clicksSchema())
	if got := s.Schema().String(); got != "user:int, url:string, ts:date, dur:float" {
		t.Errorf("scan schema = %q", got)
	}
	f := s.Filter(expr.Eq(expr.C(0, "user"), expr.Lit(data.Int(1))))
	if len(f.Schema()) != 4 {
		t.Error("filter should preserve schema")
	}
	p := s.Project([]string{"u2", "l"}, []expr.Expr{
		expr.B(expr.OpMul, expr.C(0, "user"), expr.Lit(data.Int(2))),
		expr.F("len", expr.C(1, "url")),
	})
	if got := p.Schema().String(); got != "u2:int, l:int" {
		t.Errorf("project schema = %q", got)
	}
	agg := s.HashAgg([]int{0}, []AggSpec{{Fn: AggSum, Col: 3}, {Fn: AggAvg, Col: 3}, {Fn: AggCount, Col: 1}, {Fn: AggMax, Col: 2}})
	if got := agg.Schema().String(); got != "user:int, sum_dur:float, avg_dur:float, count_url:int, max_ts:int" {
		t.Errorf("agg schema = %q", got)
	}
	j := s.HashJoin(Scan("users", "g2", usersSchema()), []int{0}, []int{0})
	if len(j.Schema()) != 6 {
		t.Errorf("join schema has %d cols", len(j.Schema()))
	}
	pr := s.Process("scrub", "h1")
	if got := pr.Schema()[len(pr.Schema())-1].Name; got != "udo_scrub" {
		t.Errorf("process appended col = %q", got)
	}
	pc := s.ProjectCols(1, 0)
	if got := pc.Schema().String(); got != "url:string, user:int" {
		t.Errorf("ProjectCols schema = %q", got)
	}
}

func TestEncodingPreciseVsNormalized(t *testing.T) {
	// Two recurring instances: same template, new GUID and date.
	day1 := samplePlan("guid-jan1", 17001)
	day2 := samplePlan("guid-jan2", 17002)
	if day1.EncodeString(expr.Normalized) != day2.EncodeString(expr.Normalized) {
		t.Error("recurring instances must have equal normalized encodings")
	}
	if day1.EncodeString(expr.Precise) == day2.EncodeString(expr.Precise) {
		t.Error("different instances must have different precise encodings")
	}
	// Same instance: precise encodings equal.
	if samplePlan("g", 17001).EncodeString(expr.Precise) != samplePlan("g", 17001).EncodeString(expr.Precise) {
		t.Error("identical plans must encode identically")
	}
	// Structural change shows in both modes.
	other := samplePlan("guid-jan1", 17001)
	mutated := Rewrite(other, func(n *Node) *Node {
		if n.Kind == OpHashGbAgg {
			n.GroupBy = []int{1}
		}
		return n
	})
	if mutated.EncodeString(expr.Normalized) == day1.EncodeString(expr.Normalized) {
		t.Error("structural change must alter normalized encoding")
	}
}

func TestEncodingUDOCodeHash(t *testing.T) {
	a := Scan("t", "g", clicksSchema()).Process("clean", "hash_v1").Output("o")
	b := Scan("t", "g", clicksSchema()).Process("clean", "hash_v2").Output("o")
	if a.EncodeString(expr.Normalized) != b.EncodeString(expr.Normalized) {
		t.Error("UDO code hash must not affect normalized encoding")
	}
	if a.EncodeString(expr.Precise) == b.EncodeString(expr.Precise) {
		t.Error("UDO code hash must affect precise encoding")
	}
}

func TestViewScanAndMaterializeTransparency(t *testing.T) {
	base := Scan("clicks", "g", clicksSchema()).Filter(
		expr.B(expr.OpGt, expr.C(3, "dur"), expr.Lit(data.Float(1))))
	pre := base.EncodeString(expr.Precise)
	norm := base.EncodeString(expr.Normalized)

	mat := base.Materialize("/views/v1", pre, norm, PhysicalProps{})
	if mat.EncodeString(expr.Precise) != pre {
		t.Error("Materialize must be signature-transparent")
	}
	vs := ViewScan("/views/v1", base.Schema(), pre, norm)
	if vs.EncodeString(expr.Precise) != pre {
		t.Error("ViewScan must encode as the replaced computation (precise)")
	}
	if vs.EncodeString(expr.Normalized) != norm {
		t.Error("ViewScan must encode as the replaced computation (normalized)")
	}
	// An ancestor over the view scan encodes identically to the original.
	origTop := base.Sort([]int{0}, nil)
	rewrTop := (&Node{Kind: OpSort, Children: []*Node{vs}, SortKeys: []int{0}}).EncodeString(expr.Precise)
	if origTop.EncodeString(expr.Precise) != rewrTop {
		t.Error("rewrite changed ancestor encoding")
	}
	// Spool is also transparent.
	if base.Spool().EncodeString(expr.Precise) != pre {
		t.Error("Spool must be signature-transparent")
	}
}

func TestWalkCloneRewriteSharing(t *testing.T) {
	shared := Scan("t", "g", usersSchema()).Filter(
		expr.B(expr.OpGt, expr.C(0, "id"), expr.Lit(data.Int(0)))).Spool()
	left := shared.HashAgg([]int{0}, []AggSpec{{Fn: AggCount, Col: 1}})
	top := left.HashJoin(shared, []int{0}, []int{0}).Output("o")

	// Walk visits shared nodes once: scan, filter, spool, agg, join, output = 6.
	if got := Count(top); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}

	cl := Clone(top)
	if cl.EncodeString(expr.Precise) != top.EncodeString(expr.Precise) {
		t.Error("clone changed encoding")
	}
	// Sharing preserved in clone: the spool node reached via both paths is
	// the same pointer.
	join := cl.Children[0]
	if join.Children[0].Children[0] != join.Children[1] {
		t.Error("clone broke DAG sharing")
	}
	// Mutating the clone must not affect the original.
	cl.Children[0].LeftKeys = []int{9}
	if top.Children[0].LeftKeys[0] != 0 {
		t.Error("clone aliases original")
	}

	// Rewrite replaces each distinct node once.
	calls := 0
	re := Rewrite(top, func(n *Node) *Node {
		calls++
		return n
	})
	if calls != 6 {
		t.Errorf("Rewrite visited %d nodes, want 6", calls)
	}
	if re.EncodeString(expr.Precise) != top.EncodeString(expr.Precise) {
		t.Error("identity rewrite changed plan")
	}
}

func TestInputsAndGUIDs(t *testing.T) {
	p := samplePlan("g-clicks", 17001)
	in := Inputs(p)
	if len(in) != 2 || in[0] != "clicks" || in[1] != "users" {
		t.Errorf("Inputs = %v", in)
	}
	// Inputs name tables, not data versions: a new GUID changes the
	// precise encoding but not the inputs.
	q := samplePlan("g-clicks-2", 17001)
	if got := Inputs(q); len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Errorf("Inputs changed with the GUID: %v vs %v", got, in)
	}
	if p.EncodeString(expr.Precise) == q.EncodeString(expr.Precise) {
		t.Error("precise encoding ignores the input GUID")
	}
}

func TestDerivePropsExchangeSortFilter(t *testing.T) {
	s := Scan("t", "g", clicksSchema())
	if p := DeriveProps(s); p.Part.Kind != PartNone {
		t.Errorf("scan props = %+v", p)
	}
	ex := s.ShuffleHash([]int{0}, 16)
	p := DeriveProps(ex)
	if p.Part.Kind != PartHash || p.Part.Cols[0] != 0 || p.Part.Count != 16 {
		t.Errorf("exchange props = %+v", p)
	}
	srt := ex.Sort([]int{2}, []bool{true})
	p = DeriveProps(srt)
	if p.Part.Kind != PartHash {
		t.Error("sort should preserve partitioning")
	}
	if len(p.Sort.Cols) != 1 || p.Sort.Cols[0] != 2 || !p.Sort.Desc[0] {
		t.Errorf("sort order = %+v", p.Sort)
	}
	// Filter preserves both.
	f := srt.Filter(expr.B(expr.OpGt, expr.C(0, "user"), expr.Lit(data.Int(0))))
	p2 := DeriveProps(f)
	if p2.Part.Kind != PartHash || len(p2.Sort.Cols) != 1 {
		t.Errorf("filter props = %+v", p2)
	}
	// A second exchange destroys the sort.
	ex2 := srt.ShuffleHash([]int{1}, 4)
	p3 := DeriveProps(ex2)
	if len(p3.Sort.Cols) != 0 {
		t.Error("exchange should destroy sort order")
	}
}

func TestDerivePropsProjectRemap(t *testing.T) {
	s := Scan("t", "g", clicksSchema()).ShuffleHash([]int{0}, 8)
	// Project keeps user (as col 1) and url (as col 0): partitioning on
	// user remaps to output col 1.
	pr := s.ProjectCols(1, 0)
	p := DeriveProps(pr)
	if p.Part.Kind != PartHash || len(p.Part.Cols) != 1 || p.Part.Cols[0] != 1 {
		t.Errorf("project remap props = %+v", p)
	}
	// Projecting away the partition column loses the property.
	pr2 := s.ProjectCols(1, 2)
	if p2 := DeriveProps(pr2); p2.Part.Kind != PartNone {
		t.Errorf("dropped partition col should clear props, got %+v", p2)
	}
}

func TestDerivePropsAggAndJoin(t *testing.T) {
	s := Scan("t", "g", clicksSchema()).ShuffleHash([]int{0}, 8)
	agg := s.HashAgg([]int{0}, []AggSpec{{Fn: AggSum, Col: 3}})
	p := DeriveProps(agg)
	if p.Part.Kind != PartHash || p.Part.Cols[0] != 0 {
		t.Errorf("agg props = %+v", p)
	}
	right := Scan("u", "g2", usersSchema()).ShuffleHash([]int{0}, 8)
	join := s.HashJoin(right, []int{0}, []int{0})
	pj := DeriveProps(join)
	if pj.Part.Kind != PartHash || pj.Part.Cols[0] != 0 {
		t.Errorf("join props = %+v", pj)
	}
	// Join on non-partition keys: no derived partitioning.
	join2 := s.HashJoin(right, []int{1}, []int{1})
	if pj2 := DeriveProps(join2); pj2.Part.Kind != PartNone {
		t.Errorf("join2 props = %+v", pj2)
	}
}

func TestStreamAggPreservesSort(t *testing.T) {
	s := Scan("t", "g", clicksSchema()).Gather().Sort([]int{0}, nil)
	agg := s.StreamAgg([]int{0}, []AggSpec{{Fn: AggCount, Col: 1}})
	p := DeriveProps(agg)
	if len(p.Sort.Cols) != 1 || p.Sort.Cols[0] != 0 {
		t.Errorf("stream agg sort props = %+v", p)
	}
	if p.Part.Kind != PartSingleton {
		t.Errorf("stream agg part props = %+v", p)
	}
}

func TestNodeStrings(t *testing.T) {
	p := samplePlan("g", 17001)
	for _, n := range Nodes(p) {
		if n.String() == "" {
			t.Errorf("empty String for kind %v", n.Kind)
		}
	}
	if OpExtract.String() != "Extract" || OpViewScan.String() != "ViewScan" {
		t.Error("OpKind names wrong")
	}
	if AggSum.String() != "sum" || AggAvg.String() != "avg" {
		t.Error("AggFn names wrong")
	}
	if PartHash.String() != "hash" {
		t.Error("PartitionKind names wrong")
	}
}
