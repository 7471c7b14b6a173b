package metadata

import (
	"fmt"
	"testing"
)

// TestSaveAllMergesWithExisting pins SaveAll's upsert semantics: new
// signatures join the set, existing ones are replaced, everything else
// survives — unlike LoadAnalysis, which replaces the whole set.
func TestSaveAllMergesWithExisting(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{
		ann("n1", "clicks"),
		ann("n2", "orders"),
	})

	upd := ann("n2", "orders", "tpl-b")
	upd.Utility = 99
	s.SaveAll([]Annotation{upd, ann("n3", "users")})

	if _, ok := s.Annotation("n1"); !ok {
		t.Error("SaveAll dropped an untouched annotation")
	}
	if a, ok := s.Annotation("n2"); !ok || a.Utility != 99 || len(a.Tags) != 2 {
		t.Errorf("SaveAll did not replace n2: %+v", a)
	}
	if _, ok := s.Annotation("n3"); !ok {
		t.Error("SaveAll did not add n3")
	}

	// The tag index must reflect the merged set: new tag reaches n2, old
	// tags still reach their annotations.
	if got := relevant(t, s, "vc", []string{"tpl-b"}); len(got) != 1 || got[0].NormSig != "n2" {
		t.Errorf("tpl-b lookup = %v", got)
	}
	if got := relevant(t, s, "vc", []string{"clicks", "orders", "users"}); len(got) != 3 {
		t.Errorf("merged lookup = %d annotations, want 3", len(got))
	}

	// Empty batch is a no-op, not a clear.
	s.SaveAll(nil)
	if n, _, _, _, _ := s.Stats(); n != 3 {
		t.Errorf("after empty SaveAll: %d annotations, want 3", n)
	}
}

// TestSaveAllPreservesViewsAndLocks mirrors the LoadAnalysis guarantee:
// installing annotations must not disturb materialized views.
func TestSaveAllPreservesViewsAndLocks(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "t")})
	s.ReportMaterialized(ViewInfo{PreciseSig: "p1", NormSig: "n1", Path: "/views/v1"})

	s.SaveAll([]Annotation{ann("n2", "t2")})
	if _, ok := s.LookupView("p1"); !ok {
		t.Error("SaveAll dropped a materialized view")
	}
}

// TestInstallViewsBulk pins the bulk view-install path Restore uses: one
// swap for the whole batch, lock release included.
func TestInstallViewsBulk(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "t")})
	if !s.ProposeMaterialize("n1", "p0", "job1", 0) {
		t.Fatal("propose failed")
	}
	var vs []ViewInfo
	for i := 0; i < 50; i++ {
		vs = append(vs, ViewInfo{
			PreciseSig: fmt.Sprintf("p%d", i),
			NormSig:    "n1",
			Path:       fmt.Sprintf("/views/v%d", i),
		})
	}
	s.installViews(vs)
	for i := 0; i < 50; i++ {
		if _, ok := s.LookupView(fmt.Sprintf("p%d", i)); !ok {
			t.Fatalf("view p%d missing after bulk install", i)
		}
	}
	if _, _, locks, _, _ := s.Stats(); locks != 0 {
		t.Errorf("bulk install left %d locks, want 0", locks)
	}
}
