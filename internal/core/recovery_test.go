package core

import (
	"context"
	"errors"

	"testing"

	"cloudviews/internal/fault"
	"cloudviews/internal/plan"
)

// transientOnce is an exec.FaultHook that crashes the first attempt of one
// operator kind with a retryable error.
type transientOnce struct{ kind plan.OpKind }

type retryableErr struct{ msg string }

func (e retryableErr) Error() string   { return e.msg }
func (e retryableErr) Transient() bool { return true }

func (h transientOnce) VertexDone(_, _ string, k plan.OpKind, attempt int) error {
	if k == h.kind && attempt == 0 {
		return retryableErr{"transient crash"}
	}
	return nil
}

func (h transientOnce) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestTransientVertexFailureRecoversViaRetry: a single failing vertex
// attempt does not fail the job — the retry absorbs it, the result is
// validated against the clean baseline, and the retry surfaces in both the
// job result and the service counters.
func TestTransientVertexFailureRecoversViaRetry(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	s.Exec.Faults = transientOnce{plan.OpExchange}
	defer func() { s.Exec.Faults = nil }()
	r, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatalf("retry should have absorbed the crash: %v", err)
	}
	if r.Result.Retries == 0 {
		t.Error("job reports no retries")
	}
	if got := s.Snapshot().Recovery.VertexRetries; got == 0 {
		t.Error("service retry counter not bumped")
	}
	// ValidateResults (on by default in newService) already byte-checked
	// the output against a clean baseline.
}

// TestCorruptViewQuarantineAndReplan: a view whose payload was silently
// corrupted at build time fails its consumer's checksum verification; the
// consumer quarantines it (metadata deregistration + file deletion) and
// transparently re-optimizes, finishing with correct results.
func TestCorruptViewQuarantineAndReplan(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	// Builder runs with certain corruption on every view write.
	s.Store.Faults = corruptAlways{}
	ra, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	if len(ra.Decision.ViewsBuilt) != 1 {
		t.Fatalf("builder built %d views, want 1", len(ra.Decision.ViewsBuilt))
	}
	s.Store.Faults = nil
	viewsBefore := s.Meta.Views()
	if len(viewsBefore) != 1 {
		t.Fatalf("registered views = %d, want 1", len(viewsBefore))
	}

	// Consumer trips the checksum, quarantines, and replans.
	rb, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatalf("consumer should survive the corrupt view: %v", err)
	}
	if len(rb.Decision.QuarantinedViews) != 1 || rb.Decision.QuarantinedViews[0] != viewsBefore[0].Path {
		t.Errorf("QuarantinedViews = %v, want [%s]", rb.Decision.QuarantinedViews, viewsBefore[0].Path)
	}
	if rec := s.Snapshot().Recovery; rec.QuarantinedViews != 1 || rec.DegradedReplans != 1 {
		t.Errorf("recovery counters = %+v", rec)
	}
	// The quarantined view is gone from both layers.
	for _, v := range s.Meta.Views() {
		if v.Path == viewsBefore[0].Path {
			t.Error("quarantined view still registered")
		}
	}
	if _, err := s.Store.Get(viewsBefore[0].Path); err == nil {
		t.Error("quarantined view file still stored")
	}
	// Progress: a later job can rebuild the view cleanly.
	rc, err := s.Run(context.Background(), specA("a2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Decision.ViewsBuilt)+len(rc.Decision.ViewsUsed) == 0 {
		t.Error("rebuild after quarantine is wedged")
	}
}

// corruptAlways corrupts every view write, injects nothing else.
type corruptAlways struct{}

func (corruptAlways) ReadView(string) error          { return nil }
func (corruptAlways) WriteView(string) (bool, error) { return true, nil }

// TestMissingViewDegrades: a view registered in metadata whose file has
// vanished (the orphan direction) is quarantined by its consumer instead
// of failing the job.
func TestMissingViewDegrades(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}
	views := s.Meta.Views()
	if len(views) != 1 {
		t.Fatalf("views = %d, want 1", len(views))
	}
	// Simulate the orphan: the file disappears, the registration stays.
	s.Store.Delete(views[0].Path)

	rb, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatalf("consumer should survive the vanished view: %v", err)
	}
	if len(rb.Decision.QuarantinedViews) != 1 {
		t.Errorf("QuarantinedViews = %v", rb.Decision.QuarantinedViews)
	}
	if len(s.Meta.Views()) != 1 {
		t.Errorf("replanned job should have rebuilt the view, meta has %d", len(s.Meta.Views()))
	}
}

// TestMetadataBlackoutSkipsReuse: when the metadata lookup fails, the job
// runs its original plan — counted, flagged in the decision, never fatal.
func TestMetadataBlackoutSkipsReuse(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}

	s.Meta.Faults = blackout{}
	rb, err := s.Run(context.Background(), specB("b1", 1))
	if err != nil {
		t.Fatalf("blackout must degrade, not abort: %v", err)
	}
	if !rb.Decision.MetaUnavailable {
		t.Error("decision not flagged MetaUnavailable")
	}
	if len(rb.Decision.ViewsUsed)+len(rb.Decision.ViewsBuilt) != 0 {
		t.Error("degraded job still touched views")
	}
	if got := s.Snapshot().Recovery.ReuseSkipped; got != 1 {
		t.Errorf("ReuseSkipped = %d, want 1", got)
	}

	s.Meta.Faults = nil

	// Service recovered: reuse works again.
	rc, err := s.Run(context.Background(), specB("b3", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Decision.ViewsUsed) != 1 {
		t.Error("reuse did not resume after the blackout")
	}
}

type blackout struct{}

func (blackout) Lookup(string) error { return errors.New("metadata unreachable") }

// TestInstallFaultsWiresEveryLayer: one injector reaches exec, storage,
// and metadata, and uninstalls cleanly.
func TestInstallFaultsWiresEveryLayer(t *testing.T) {
	s := newService(t)
	in := fault.NewInjector(fault.Config{Seed: 1})
	s.InstallFaults(in)
	if s.Exec.Faults == nil || s.Store.Faults == nil || s.Meta.Faults == nil {
		t.Fatal("injector not wired into every layer")
	}
	s.InstallFaults(nil)
	if s.Exec.Faults != nil || s.Store.Faults != nil || s.Meta.Faults != nil {
		t.Fatal("injector not removed from every layer")
	}
}
