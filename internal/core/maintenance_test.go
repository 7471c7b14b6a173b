package core

import (
	"context"
	"fmt"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
)

func TestAnalysisStaleDetection(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)

	// Instance 1 behaves: views get built, analysis is fresh.
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	s.BeginInstance(2) // rolls the counter: 1 build last instance
	if st := s.Snapshot(); st.ViewsBuiltLastInstance != 1 {
		t.Errorf("builds last instance = %d", st.ViewsBuiltLastInstance)
	}
	if s.Snapshot().AnalysisStale {
		t.Error("analysis should be fresh after a building instance")
	}

	// Instance 2: the template changed *inside* the shared computation
	// (the repartitioning width), so no subgraph matches the annotation's
	// normalized signature and nothing materializes.
	deliver(t, s.Catalog, 2)
	changedSub := plan.Scan("events", guidFor(2), eventSchema()).
		Filter(expr.Eq(expr.C(2, "day"), expr.P("day", data.Date(17002)))).
		ShuffleHash([]int{0}, 16). // was 4 in the original template
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}, {Fn: plan.AggCount, Col: 1}})
	changed := JobSpec{
		Meta: specA("a2-changed", 2).Meta,
		Root: changedSub.Sort([]int{1}, []bool{true}).Top(10).Output("topUsers"),
	}
	if _, err := s.Run(context.Background(), changed); err != nil {
		t.Fatal(err)
	}
	s.BeginInstance(3)
	if st := s.Snapshot(); st.ViewsBuiltLastInstance != 0 {
		t.Errorf("changed workload still built %d views", st.ViewsBuiltLastInstance)
	}
	if !s.Snapshot().AnalysisStale {
		t.Error("analysis should be flagged stale after builds stop")
	}

	// Rerunning the analyzer over the new history refreshes annotations;
	// the next instance builds again.
	an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 1})
	if len(an.Selected) == 0 {
		t.Fatal("re-analysis selected nothing")
	}
}

func TestAnalysisStaleNeedsBaselineAndAnnotations(t *testing.T) {
	s := newService(t)
	// No annotations: never stale.
	if s.Snapshot().AnalysisStale {
		t.Error("no annotations should never be stale")
	}
	seedHistory(t, s)
	// Annotations loaded but no instance completed yet: not stale.
	if s.Snapshot().AnalysisStale {
		t.Error("no baseline instance yet, should not be stale")
	}
}

func TestReclaimStorage(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	// Two templates over disjoint subgraphs so two views exist with
	// different utilities.
	seedHistory(t, s) // selects the shared agg (high utility)
	deliver(t, s.Catalog, 1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Store.Len() != 1 {
		t.Fatalf("store has %d views", s.Store.Len())
	}
	viewBytes := s.Store.Views()[0].Bytes

	// An orphan view (no annotation backs it) ranks below everything.
	orphanPlan := plan.Scan("events", guidFor(1), eventSchema()).
		Filter(expr.B(expr.OpGt, expr.C(3, "dur"), expr.Lit(data.Float(1)))).
		Gather()
	orphanSig := sigOf(orphanPlan)
	orphan := orphanPlan.Materialize("/views/orphan", orphanSig.Precise, orphanSig.Normalized, plan.PhysicalProps{}).Output("x")
	if _, err := s.Exec.RunCtx(context.Background(), orphan, "orphan-job", 1, 0); err != nil {
		t.Fatal(err)
	}
	if s.Store.Len() != 2 {
		t.Fatalf("store has %d views, want 2", s.Store.Len())
	}

	// Reclaim a little: the orphan goes first, the annotated view stays.
	purged := s.ReclaimStorage(1)
	if len(purged) != 1 || purged[0] != "/views/orphan" {
		t.Fatalf("purged = %v, want the orphan", purged)
	}
	if s.Store.Len() != 1 {
		t.Error("annotated view should survive small reclamation")
	}

	// Reclaim everything.
	purged = s.ReclaimStorage(viewBytes * 10)
	if len(purged) != 1 {
		t.Fatalf("second reclaim purged %v", purged)
	}
	if s.Store.Len() != 0 || len(s.Meta.Views()) != 0 {
		t.Error("full reclamation left residue")
	}
	// Jobs keep running fine (they just rebuild).
	if _, err := s.Run(context.Background(), specB("b1", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimOrderIsLowestUtilityFirst(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	// Seed with TopK 2 so two views with different utilities exist.
	for i, spec := range []JobSpec{specA("a0", 0), specB("b0", 0)} {
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 2})
	if len(an.Selected) < 2 {
		t.Skip("fixture yields fewer than two selections")
	}
	deliver(t, s.Catalog, 1)
	s.Opt.MaxMaterializePerJob = 2
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), specB("b1", 1)); err != nil {
		t.Fatal(err)
	}
	if s.Store.Len() < 2 {
		t.Skipf("only %d views built", s.Store.Len())
	}
	// Purge exactly one: it must be the lower-utility one.
	utilOf := map[string]float64{}
	for _, v := range s.Meta.Views() {
		if ann, ok := s.Meta.Annotation(v.NormSig); ok {
			utilOf[v.Path] = ann.Utility
		}
	}
	purged := s.ReclaimStorage(1)
	if len(purged) != 1 {
		t.Fatalf("purged %v", purged)
	}
	for path, u := range utilOf {
		if path != purged[0] && u < utilOf[purged[0]] {
			t.Errorf("purged %s (util %.0f) before lower-utility %s (util %.0f)",
				purged[0], utilOf[purged[0]], path, u)
		}
	}
}

// sigOf is a tiny helper to avoid importing signature in multiple spots.
func sigOf(n *plan.Node) (s struct{ Precise, Normalized string }) {
	full := fmt.Sprintf("%s", n.EncodeString(expr.Precise))
	norm := fmt.Sprintf("%s", n.EncodeString(expr.Normalized))
	// Encodings are valid unique identifiers for the store in tests.
	s.Precise, s.Normalized = full, norm
	return
}

func TestViewProvenanceAndReplay(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	an := seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	builder, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(builder.AnnotationsUsed) == 0 {
		t.Fatal("annotations not preserved as job resource")
	}
	path := builder.Decision.ViewsBuilt[0].Path

	// Provenance by path, by signature, and by fragment.
	for _, key := range []string{path, builder.Decision.ViewsBuilt[0].PreciseSig} {
		p, err := s.ViewProvenance(key)
		if err != nil {
			t.Fatalf("provenance(%q): %v", key, err)
		}
		if p.ProducerJobID != "a1" {
			t.Errorf("producer = %q", p.ProducerJobID)
		}
		if !p.Annotated || p.Frequency != an.Selected[0].Frequency {
			t.Errorf("selection rationale lost: %+v", p)
		}
		if p.Rows <= 0 || p.Bytes <= 0 {
			t.Errorf("missing stats: %+v", p)
		}
	}
	if _, err := s.ViewProvenance("no-such-view"); err == nil {
		t.Error("missing view should error")
	}
	// An empty key is a substring of every path; it must not return
	// whichever view happens to be registered first.
	if p, err := s.ViewProvenance(""); err == nil {
		t.Errorf("empty key should error, got view %q", p.Path)
	}

	// Replay a consumer job: same decisions, same output.
	consumer, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(consumer.Decision.ViewsUsed) != 1 {
		t.Fatal("consumer did not reuse")
	}
	replayed, err := s.Replay(consumer)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Decision.ViewsUsed) != 1 {
		t.Error("replay lost the reuse decision")
	}
	if !data.RowsEqual(consumer.Result.Outputs["activeUsers"], replayed.Result.Outputs["activeUsers"]) {
		t.Error("replay produced different results")
	}
}

// TestAnnotationsUsedIsTheJobsOwn: a job result keeps the lookup's slice
// as its AnnotationsUsed, so that slice must be the job's own. Scribbling
// over it changes neither the stored annotation nor the next lookup.
func TestAnnotationsUsedIsTheJobsOwn(t *testing.T) {
	s := newService(t)
	s.Config.ValidateResults = false
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	r, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AnnotationsUsed) == 0 {
		t.Fatal("no annotations preserved")
	}
	orig := r.AnnotationsUsed[0]
	for i := range r.AnnotationsUsed {
		r.AnnotationsUsed[i].NormSig = "scribbled"
		r.AnnotationsUsed[i].Utility = -1
		r.AnnotationsUsed[i].Frequency = -1
	}
	stored, ok := s.Meta.Annotation(orig.NormSig)
	if !ok || stored.Utility != orig.Utility || stored.Frequency != orig.Frequency {
		t.Errorf("stored annotation = %+v (found %v), want utility %v frequency %d",
			stored, ok, orig.Utility, orig.Frequency)
	}
	next, err := s.Meta.TryRelevantViews(specA("a2", 1).Meta.VC, defaultTags(specA("a2", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(next) == 0 || next[0].NormSig != orig.NormSig || next[0].Utility != orig.Utility {
		t.Errorf("next lookup = %+v, want the original %q", next, orig.NormSig)
	}
}
