package tpcds

import (
	"context"
	"testing"

	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

func TestGenerateCatalog(t *testing.T) {
	cat := Generate(1.0, 42)
	defs := Tables()
	if len(defs) != 24 {
		t.Fatalf("tables = %d, want 24", len(defs))
	}
	for _, def := range defs {
		tab, err := cat.Get(def.Name)
		if err != nil {
			t.Fatalf("missing table %s: %v", def.Name, err)
		}
		if tab.NumRows() == 0 {
			t.Errorf("table %s empty", def.Name)
		}
		if err := tab.Validate(); err != nil {
			t.Errorf("table %s invalid: %v", def.Name, err)
		}
	}
	// Determinism.
	again := Generate(1.0, 42)
	a, _ := cat.Get("store_sales")
	b, _ := again.Get("store_sales")
	if a.NumRows() != b.NumRows() || a.GUID != b.GUID {
		t.Error("generation not deterministic")
	}
}

func TestScaleFactor(t *testing.T) {
	small := Generate(0.5, 1)
	big := Generate(2.0, 1)
	ss, _ := small.Get("store_sales")
	sb, _ := big.Get("store_sales")
	if sb.NumRows() <= ss.NumRows() {
		t.Error("fact tables must grow with scale")
	}
	ds, _ := small.Get("date_dim")
	db, _ := big.Get("date_dim")
	// Dimensions grow sublinearly but still grow.
	if db.NumRows() <= ds.NumRows() {
		t.Error("dimensions must grow with scale")
	}
	factRatio := float64(sb.NumRows()) / float64(ss.NumRows())
	dimRatio := float64(db.NumRows()) / float64(ds.NumRows())
	if dimRatio >= factRatio {
		t.Error("dimensions should scale sublinearly vs facts")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	cat := Generate(1.0, 7)
	ss, _ := cat.Get("store_sales")
	dd, _ := cat.Get("date_dim")
	maxKey := dd.NumRows()
	for _, p := range ss.Partitions {
		for _, r := range p {
			if r[0].AsInt() < 0 || r[0].AsInt() >= maxKey {
				t.Fatalf("ss_sold_date_sk %d outside date_dim range %d", r[0].AsInt(), maxKey)
			}
		}
	}
}

func TestAll99QueriesBuildAndRun(t *testing.T) {
	cat := Generate(1.0, 42)
	b := &Builder{Cat: cat}
	qs := b.Queries()
	if len(qs) != 99 {
		t.Fatalf("queries = %d", len(qs))
	}
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	for _, q := range qs {
		if q.Root.Kind != plan.OpOutput {
			t.Fatalf("%s root is %v", q.Name, q.Root.Kind)
		}
		res, err := ex.RunCtx(context.Background(), q.Root, q.Name, 0, 0)
		if err != nil {
			t.Fatalf("%s failed: %v", q.Name, err)
		}
		if res.TotalCPU <= 0 {
			t.Errorf("%s has zero cost", q.Name)
		}
		// Most queries should return rows over FK-consistent data; at
		// minimum the plan executed, but flag empty results for the
		// aggregate families where data must hit.
		if len(res.Outputs[q.Name]) == 0 && (q.ID == 3 || q.ID == 7 || q.ID == 21) {
			t.Errorf("%s returned no rows", q.Name)
		}
	}
}

func TestQueriesShareCommonSubexpressions(t *testing.T) {
	// The benchmark's reuse opportunity: a substantial number of precise
	// subgraph signatures appear in more than one query.
	cat := Generate(1.0, 42)
	b := &Builder{Cat: cat}
	comp := signature.NewComputer()
	sigQueries := map[string]map[int]bool{}
	for _, q := range b.Queries() {
		for _, s := range comp.AllSubgraphs(q.Root) {
			if s.Node.Kind == plan.OpExtract || s.Node.Kind == plan.OpOutput {
				continue
			}
			if sigQueries[s.Sig.Precise] == nil {
				sigQueries[s.Sig.Precise] = map[int]bool{}
			}
			sigQueries[s.Sig.Precise][q.ID] = true
		}
	}
	shared := 0
	maxShare := 0
	for _, qs := range sigQueries {
		if len(qs) >= 2 {
			shared++
			if len(qs) > maxShare {
				maxShare = len(qs)
			}
		}
	}
	if shared < 10 {
		t.Errorf("only %d shared subexpressions across queries; benchmark should have many", shared)
	}
	if maxShare < 4 {
		t.Errorf("max sharing degree %d; expected a hot core shared by several queries", maxShare)
	}
	t.Logf("shared subexpressions: %d, hottest shared by %d queries", shared, maxShare)
}

func TestBrandRevenueFamilySharesCore(t *testing.T) {
	// q3/q42/q52/q55 are the classic "same query, different constants"
	// family; in our rendition they share the exact salesItem core.
	cat := Generate(1.0, 42)
	b := &Builder{Cat: cat}
	core3 := b.salesByYearItem(StoreChannel, 2000)
	sig := signature.Of(core3)
	comp := signature.NewComputer()
	for _, id := range []int{3, 42, 52, 55} {
		q := b.Query(id)
		found := false
		for _, s := range comp.AllSubgraphs(q.Root) {
			if s.Sig.Precise == sig.Precise {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("q%d does not contain the shared brand-revenue core", id)
		}
	}
}

func TestQueryByIDMatchesBatch(t *testing.T) {
	cat := Generate(1.0, 42)
	b := &Builder{Cat: cat}
	all := b.Queries()
	for _, id := range []int{1, 21, 30, 34, 50, 77, 99} {
		single := b.Query(id)
		sa := signature.Of(single.Root)
		sb := signature.Of(all[id-1].Root)
		if sa != sb {
			t.Errorf("q%d differs between Query() and Queries()", id)
		}
	}
}
