package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/plan"
)

func ann(sig string, tags ...string) Annotation {
	return Annotation{
		NormSig:    sig,
		Tags:       tags,
		AvgRuntime: 10,
		Props:      plan.PhysicalProps{Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 4}},
	}
}

// relevant is the per-job lookup for tests that expect it to succeed.
func relevant(t testing.TB, api API, vc string, tags []string) []Annotation {
	t.Helper()
	got, err := api.TryRelevantViews(vc, tags)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLoadAndTryRelevantViews(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{
		ann("n1", "clicks", "tpl-a"),
		ann("n2", "clicks", "users"),
		ann("n3", "orders"),
	})
	got := relevant(t, s, "vc1", []string{"clicks"})
	if len(got) != 2 {
		t.Fatalf("relevant = %d, want 2", len(got))
	}
	// Union without duplicates across tags.
	got = relevant(t, s, "vc1", []string{"clicks", "users", "tpl-a"})
	if len(got) != 2 {
		t.Fatalf("deduped relevant = %d, want 2", len(got))
	}
	if len(relevant(t, s, "vc1", []string{"nothing"})) != 0 {
		t.Error("false positive for unknown tag")
	}
	if _, ok := s.Annotation("n3"); !ok {
		t.Error("Annotation lookup failed")
	}
	if _, ok := s.Annotation("missing"); ok {
		t.Error("Annotation false positive")
	}
	// Reload replaces annotations.
	s.LoadAnalysis([]Annotation{ann("n9", "clicks")})
	got = relevant(t, s, "vc1", []string{"clicks"})
	if len(got) != 1 || got[0].NormSig != "n9" {
		t.Errorf("after reload = %v", got)
	}
}

func TestBuildLockProtocol(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "t")})

	// First proposer wins.
	if !s.ProposeMaterialize("n1", "p1", "jobA", 100) {
		t.Fatal("first propose should succeed")
	}
	// Concurrent second job is refused while the lock is live.
	if s.ProposeMaterialize("n1", "p1", "jobB", 105) {
		t.Error("second propose should fail under live lock")
	}
	// Same job re-proposing is fine (idempotent within owner).
	if !s.ProposeMaterialize("n1", "p1", "jobA", 105) {
		t.Error("owner re-propose should succeed")
	}
	// Lock expiry (now + AvgRuntime(10) + 1): jobB can take over at 117.
	if !s.ProposeMaterialize("n1", "p1", "jobB", 117) {
		t.Error("expired lock should be stealable (fault tolerance)")
	}
	// Report releases the lock and registers the view.
	s.ReportMaterialized(ViewInfo{PreciseSig: "p1", NormSig: "n1", Path: "/v/p1", ExpiresAt: 999})
	if _, ok := s.LookupView("p1"); !ok {
		t.Fatal("view not registered")
	}
	// No one can propose a view that already exists.
	if s.ProposeMaterialize("n1", "p1", "jobC", 120) {
		t.Error("propose should fail for existing view")
	}
}

func TestAbortReleasesOnlyOwnLock(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1")})
	if !s.ProposeMaterialize("n1", "p1", "jobA", 0) {
		t.Fatal("propose failed")
	}
	s.AbortMaterialize("p1", "jobB") // not the owner: no-op
	if s.ProposeMaterialize("n1", "p1", "jobB", 1) {
		t.Error("lock should still be held after foreign abort")
	}
	s.AbortMaterialize("p1", "jobA")
	if !s.ProposeMaterialize("n1", "p1", "jobB", 2) {
		t.Error("lock should be free after owner abort")
	}
}

func TestDefaultLockTTLWithoutAnnotation(t *testing.T) {
	s := NewService()
	if !s.ProposeMaterialize("unknown", "p1", "jobA", 0) {
		t.Fatal("propose without annotation should still work")
	}
	if s.ProposeMaterialize("unknown", "p1", "jobB", 59) {
		t.Error("default TTL should hold at t=59")
	}
	if !s.ProposeMaterialize("unknown", "p1", "jobB", 61) {
		t.Error("default TTL should expire at t=61")
	}
}

func TestPurgeExpiredAndUnregister(t *testing.T) {
	s := NewService()
	s.ReportMaterialized(ViewInfo{PreciseSig: "p1", Path: "/v/1", ExpiresAt: 10})
	s.ReportMaterialized(ViewInfo{PreciseSig: "p2", Path: "/v/2", ExpiresAt: 20})
	paths := s.PurgeExpired(15)
	if len(paths) != 1 || paths[0] != "/v/1" {
		t.Errorf("purged = %v", paths)
	}
	if _, ok := s.LookupView("p1"); ok {
		t.Error("purged view still visible")
	}
	if _, ok := s.LookupView("p2"); !ok {
		t.Error("unexpired view lost")
	}
	s.Unregister("p2")
	if _, ok := s.LookupView("p2"); ok {
		t.Error("unregistered view still visible")
	}
}

func TestOnlyOneConcurrentBuilderWins(t *testing.T) {
	// Build-build synchronization: N goroutines race to materialize the
	// same precise signature; exactly one must win.
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1")})
	var wg sync.WaitGroup
	wins := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := fmt.Sprintf("job%d", i)
			if s.ProposeMaterialize("n1", "p-race", job, 0) {
				wins <- job
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d winners, want exactly 1: %v", len(winners), winners)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "t")})
	relevant(t, s, "vc1", []string{"t"})
	relevant(t, s, "vc1", []string{"t"})
	s.ProposeMaterialize("n1", "p1", "j", 0)
	a, v, l, lookups, proposals := s.Stats()
	if a != 1 || v != 0 || l != 1 || lookups != 2 || proposals != 1 {
		t.Errorf("stats = %d %d %d %d %d", a, v, l, lookups, proposals)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	s := NewService()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.LoadAnalysis([]Annotation{ann("n1", "clicks")}); err != nil {
		t.Fatal(err)
	}
	got := relevant(t, c, "vc1", []string{"clicks"})
	if len(got) != 1 || got[0].NormSig != "n1" {
		t.Fatalf("relevant over HTTP = %v", got)
	}
	if got[0].Props.Part.Kind != plan.PartHash {
		t.Error("physical props lost in JSON round trip")
	}
	if a, ok := c.Annotation("n1"); !ok || a.AvgRuntime != 10 {
		t.Errorf("annotation over HTTP = %v %v", a, ok)
	}
	if !c.ProposeMaterialize("n1", "p1", "jobA", 0) {
		t.Error("propose over HTTP failed")
	}
	if c.ProposeMaterialize("n1", "p1", "jobB", 1) {
		t.Error("lock not honored over HTTP")
	}
	c.ReportMaterialized(ViewInfo{PreciseSig: "p1", NormSig: "n1", Path: "/v/1", Rows: 42, ExpiresAt: 100})
	v, ok := c.LookupView("p1")
	if !ok || v.Rows != 42 || v.Path != "/v/1" {
		t.Errorf("view over HTTP = %+v %v", v, ok)
	}
	c.AbortMaterialize("p1", "jobA") // no-op, must not error
	if _, ok := c.LookupView("missing"); ok {
		t.Error("missing view false positive over HTTP")
	}
}

// TestHandlerBoundsRequestBody: a body over maxRequestBytes is rejected
// with a 4xx instead of being buffered, and the annotation set survives —
// unbounded, this padded-but-valid empty array decoded fine and cleared it.
func TestHandlerBoundsRequestBody(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "clicks")})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body := append([]byte("["), bytes.Repeat([]byte(" "), maxRequestBytes)...)
	body = append(body, ']')
	resp, err := http.Post(srv.URL+"/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("oversized /load answered %s, want a 4xx", resp.Status)
	}
	if got := relevant(t, s, "vc", []string{"clicks"}); len(got) != 1 || got[0].NormSig != "n1" {
		t.Errorf("oversized /load changed the annotation set: %v", got)
	}
}

func TestClientSwallowsConnectionErrors(t *testing.T) {
	// Transparency (§4): an unreachable metadata service disables reuse
	// but never breaks the job. The coordination calls answer negatively;
	// only the per-job lookup reports the failure (the breaker's signal).
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	if got, err := c.TryRelevantViews("vc1", []string{"t"}); err == nil || got != nil {
		t.Errorf("unreachable service returned %v, %v; the lookup must report it", got, err)
	}
	if c.ProposeMaterialize("n", "p", "j", 0) {
		t.Error("unreachable propose should be negative")
	}
	if _, ok := c.LookupView("p"); ok {
		t.Error("unreachable lookup should miss")
	}
	if _, ok := c.Annotation("n"); ok {
		t.Error("unreachable annotation should miss")
	}
	c.ReportMaterialized(ViewInfo{})
	c.AbortMaterialize("p", "j")
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "clicks"), ann("n2", "orders")})
	s.ReportMaterialized(ViewInfo{PreciseSig: "p1", NormSig: "n1", Path: "/v/1", Rows: 9, ExpiresAt: 50})
	// A held lock must NOT survive the snapshot (restart = lock expiry).
	if !s.ProposeMaterialize("n2", "p2", "jobA", 0) {
		t.Fatal("propose failed")
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Annotations and inverted index restored.
	if got := relevant(t, r, "vc", []string{"clicks"}); len(got) != 1 || got[0].NormSig != "n1" {
		t.Errorf("annotations lost: %v", got)
	}
	// Views restored.
	if v, ok := r.LookupView("p1"); !ok || v.Rows != 9 {
		t.Errorf("views lost: %+v %v", v, ok)
	}
	// Locks dropped: a different job can immediately propose p2.
	if !r.ProposeMaterialize("n2", "p2", "jobB", 0) {
		t.Error("stale lock survived restart")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	for _, src := range []string{"", "nope", `{"Format":"x","Version":1}`, `{"Format":"cloudviews-metadata","Version":9}`} {
		if _, err := Restore(strings.NewReader(src)); err == nil {
			t.Errorf("Restore(%q) should fail", src)
		}
	}
}

// populated returns a service with enough journaled state that truncation
// points land inside the record stream.
func populated(t *testing.T) *Service {
	t.Helper()
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "clicks"), ann("n2", "orders"), ann("n3", "events")})
	for i, sig := range []string{"p1", "p2", "p3"} {
		s.ReportMaterialized(ViewInfo{
			PreciseSig: sig, NormSig: "n1", Path: "/v/" + sig,
			Rows: int64(i + 1), ExpiresAt: 50,
		})
	}
	return s
}

// TestRestoreTruncatedJournal: a snapshot cut off at any byte past the
// header restores the valid prefix instead of erroring — the service
// always comes back up after a crash mid-Save.
func TestRestoreTruncatedJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := populated(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	headerLen := bytes.IndexByte(full, '\n') + 1
	for cut := headerLen; cut <= len(full); cut += 7 {
		r, err := Restore(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("truncation at %d/%d bytes errored: %v", cut, len(full), err)
		}
		a, v, locks, _, _ := r.Stats()
		if a > 3 || v > 3 || locks != 0 {
			t.Fatalf("truncation at %d restored impossible state: %d anns %d views", cut, a, v)
		}
	}
	// The untruncated journal restores everything.
	r, err := Restore(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if a, v, _, _, _ := r.Stats(); a != 3 || v != 3 {
		t.Fatalf("full restore got %d anns %d views, want 3/3", a, v)
	}
}

// TestRestoreCorruptedTail: garbage after valid records loses only the
// records at and past the damage.
func TestRestoreCorruptedTail(t *testing.T) {
	var buf bytes.Buffer
	if err := populated(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), buf.Bytes()...)
	// Stomp the third line (first view record) with non-JSON bytes.
	lines := bytes.SplitAfter(damaged, []byte("\n"))
	corruptAt := 4 // header + 3 annotations
	prefix := bytes.Join(lines[:corruptAt], nil)
	damaged = append(prefix, []byte("##corrupt##\n")...)
	damaged = append(damaged, bytes.Join(lines[corruptAt:], nil)...)

	r, err := Restore(bytes.NewReader(damaged))
	if err != nil {
		t.Fatalf("corrupted tail errored the restore: %v", err)
	}
	a, v, _, _, _ := r.Stats()
	if a != 3 {
		t.Errorf("annotations before the damage lost: %d", a)
	}
	if v != 0 {
		t.Errorf("records past the damage should be dropped, got %d views", v)
	}
}

// TestRestoreLegacyV1Snapshot: pre-journal single-object snapshots still
// load (the payload rides in the header line).
func TestRestoreLegacyV1Snapshot(t *testing.T) {
	src := `{"Format":"cloudviews-metadata","Version":1,` +
		`"Annotations":[{"NormSig":"n1","Tags":["clicks"]}],` +
		`"Views":[{"PreciseSig":"p1","NormSig":"n1","Path":"/v/p1"}],` +
		`"OfflineVCs":["batch"]}`
	r, err := Restore(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := relevant(t, r, "batch", []string{"clicks"}); len(got) != 1 {
		t.Errorf("v1 payload lost: %v", got)
	}
	if _, ok := r.LookupView("p1"); !ok {
		t.Error("v1 view registration lost")
	}
}

// TestRestoreSkipsRetiredOfflineRecords: journals written while the
// service still had a per-VC offline mode carry an "Offline" key on each
// annotation, "OfflineVC" record lines (v2) and an "OfflineVCs" header
// list (v1). They still load in full: a retired line is skipped, not
// taken for a torn tail, so the annotation after it survives. A fresh
// Save writes none of those keys.
func TestRestoreSkipsRetiredOfflineRecords(t *testing.T) {
	v2 := `{"Format":"cloudviews-metadata","Version":2}
{"Ann":{"NormSig":"n1","Tags":["clicks"],"Offline":true}}
{"View":{"PreciseSig":"p1","NormSig":"n1","Path":"/v/p1","Rows":4}}
{"OfflineVC":"batch_vc"}
{"Ann":{"NormSig":"n2","Tags":["clicks"],"Offline":false}}
`
	v1 := `{"Format":"cloudviews-metadata","Version":1,` +
		`"Annotations":[{"NormSig":"n1","Tags":["clicks"],"Offline":true},{"NormSig":"n2","Tags":["clicks"]}],` +
		`"Views":[{"PreciseSig":"p1","NormSig":"n1","Path":"/v/p1","Rows":4}],` +
		`"OfflineVCs":["batch_vc"]}`
	for name, src := range map[string]string{"v2": v2, "v1": v1} {
		r, err := Restore(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := relevant(t, r, "batch_vc", []string{"clicks"})
		if len(got) != 2 || got[0].NormSig != "n1" || got[1].NormSig != "n2" {
			t.Errorf("%s: annotations = %+v, want n1 and n2", name, got)
		}
		if v, ok := r.LookupView("p1"); !ok || v.Rows != 4 {
			t.Errorf("%s: view = %+v %v, want p1 with 4 rows", name, v, ok)
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf.Bytes(), []byte(`"Offline`)) {
			t.Errorf("%s: re-saved journal still carries an offline key:\n%s", name, buf.Bytes())
		}
	}
}

// blackoutHook fails every lookup.
type blackoutHook struct{}

func (blackoutHook) Lookup(string) error { return errors.New("metadata unreachable") }

// TestTryRelevantViewsFaultSeam: the fault hook fails TryRelevantViews,
// in process and through the HTTP handler (503), and the lookup recovers
// when the hook is removed.
func TestTryRelevantViewsFaultSeam(t *testing.T) {
	s := NewService()
	s.LoadAnalysis([]Annotation{ann("n1", "clicks")})
	if got, err := s.TryRelevantViews("vc", []string{"clicks"}); err != nil || len(got) != 1 {
		t.Fatalf("clean lookup = %v, %v", got, err)
	}
	s.Faults = blackoutHook{}
	if _, err := s.TryRelevantViews("vc", []string{"clicks"}); err == nil {
		t.Fatal("blackout not surfaced")
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.TryRelevantViews("vc", []string{"clicks"}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("remote lookup during blackout: %v, want a 503", err)
	}
	s.Faults = nil
	if got := relevant(t, c, "vc", []string{"clicks"}); len(got) != 1 {
		t.Fatalf("lookup after blackout = %v", got)
	}
}
