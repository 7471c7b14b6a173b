package storage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudviews/internal/data"
)

// mkParts builds one single-partition payload of rows int/string rows.
func mkParts(rows int) [][]data.Row {
	part := make([]data.Row, rows)
	for i := range part {
		part[i] = data.Row{data.Int(int64(i)), data.String_("x")}
	}
	return [][]data.Row{part}
}

func mkView(sig string, expiry int64) *View {
	return &View{
		Path:       PathFor(sig, "job-"+sig),
		PreciseSig: sig,
		NormSig:    "n-" + sig,
		ExpiresAt:  expiry,
		Schema:     data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindString}},
	}
}

// write is the test shorthand for WriteCtx(ctx, mkView(...), mkParts(rows)).
func write(t *testing.T, s *Store, sig string, rows int, expiry int64) *View {
	t.Helper()
	v := mkView(sig, expiry)
	if created, err := s.WriteCtx(context.Background(), v, mkParts(rows)); err != nil || !created {
		t.Fatalf("write %s: created=%v err=%v", sig, created, err)
	}
	return v
}

func TestPathForEmbedsSigAndJob(t *testing.T) {
	p := PathFor("abc123", "job9")
	if !strings.Contains(p, "abc123") || !strings.Contains(p, "job9") {
		t.Errorf("path %q must embed signature and job id", p)
	}
}

func TestWriteGetLookup(t *testing.T) {
	s := NewStore()
	v := write(t, s, "sig1", 10, 100)
	if v.Rows != 10 || v.Bytes <= 0 {
		t.Errorf("Write did not account rows/bytes: %d/%d", v.Rows, v.Bytes)
	}
	// The at-rest footprint is the encoded payload; the logical size is the
	// row representation a consumer materializes — and for this compressible
	// data the encoding must be strictly smaller.
	if v.LogicalBytes <= v.Bytes {
		t.Errorf("encoded %d bytes not smaller than logical %d", v.Bytes, v.LogicalBytes)
	}
	var enc int64
	for _, b := range v.Encoded {
		enc += int64(len(b))
	}
	if enc != v.Bytes {
		t.Errorf("View.Bytes=%d but encoded blocks total %d", v.Bytes, enc)
	}
	if v.PartitionCount() != 1 {
		t.Errorf("PartitionCount = %d", v.PartitionCount())
	}
	got, err := s.Get(v.Path)
	if err != nil || got != v {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if s.LookupPrecise("sig1") != v {
		t.Error("LookupPrecise missed")
	}
	if s.LookupPrecise("nope") != nil {
		t.Error("LookupPrecise false positive")
	}
	if _, err := s.Get("/nope"); err == nil {
		t.Error("Get missing should error")
	}
	if s.Len() != 1 || s.TotalBytes() != v.Bytes {
		t.Errorf("Len/TotalBytes = %d/%d", s.Len(), s.TotalBytes())
	}
}

func TestDuplicateWrites(t *testing.T) {
	s := NewStore()
	first := write(t, s, "sig1", 1, 10)
	// Same path, same signature, same producer: the producer's own retry
	// (its vertex crashed after the write landed). Idempotent, not an
	// error — the installed copy stands.
	if created, err := s.WriteCtx(context.Background(), mkView("sig1", 10), mkParts(1)); err != nil || created {
		t.Errorf("producer retry: created=%v err=%v, want false, nil", created, err)
	}
	if s.Len() != 1 {
		t.Fatalf("retry must not install a second view, Len=%d", s.Len())
	}
	// Same path, different signature: a genuine collision is a hard error.
	clash := mkView("sig2", 10)
	clash.Path = first.Path
	if _, err := s.WriteCtx(context.Background(), clash, mkParts(1)); err == nil {
		t.Error("conflicting duplicate path accepted")
	}
	// Same signature, different path: a takeover builder losing the
	// first-writer-wins race (§6.1 fault tolerance). Not an error, but
	// the losing copy must be discarded.
	v := mkView("sig1", 10)
	v.Path = "/views/other"
	if created, err := s.WriteCtx(context.Background(), v, mkParts(1)); err != nil || created {
		t.Errorf("lost race: created=%v err=%v, want false, nil", created, err)
	}
	if s.Len() != 1 || s.LookupPrecise("sig1").Path != first.Path {
		t.Error("losing write must leave the first writer in place")
	}
	if _, err := s.Get("/views/other"); err == nil {
		t.Error("losing write must not install its path")
	}
}

func TestDeleteAndPurge(t *testing.T) {
	s := NewStore()
	for i, exp := range []int64{5, 10, 15} {
		write(t, s, fmt.Sprintf("s%d", i), 2, exp)
	}
	purged := s.Purge(10)
	if len(purged) != 2 {
		t.Fatalf("Purge(10) removed %d, want 2", len(purged))
	}
	if s.Len() != 1 || s.LookupPrecise("s2") == nil {
		t.Error("wrong survivor after purge")
	}
	if s.LookupPrecise("s0") != nil {
		t.Error("purged view still findable")
	}
	s.Delete(PathFor("s2", "job-s2"))
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Errorf("after delete: len=%d bytes=%d", s.Len(), s.TotalBytes())
	}
	s.Delete("/already/gone") // idempotent
}

func TestViewsSnapshotOrdered(t *testing.T) {
	s := NewStore()
	for _, sig := range []string{"c", "a", "b"} {
		write(t, s, sig, 1, 99)
	}
	vs := s.Views()
	if len(vs) != 3 {
		t.Fatalf("Views len = %d", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Path >= vs[i].Path {
			t.Error("Views not ordered by path")
		}
	}
}

func TestReclaimLowestUtility(t *testing.T) {
	s := NewStore()
	// Three views, utility = expiry for the test. Sizes equal.
	for i, sig := range []string{"low", "mid", "high"} {
		write(t, s, sig, 4, int64(i))
	}
	one := s.Views()[0].Bytes
	purged := s.ReclaimLowestUtility(one+1, func(v *View) float64 { return float64(v.ExpiresAt) })
	if len(purged) != 2 {
		t.Fatalf("reclaimed %d views, want 2", len(purged))
	}
	if s.LookupPrecise("high") == nil {
		t.Error("highest-utility view should survive")
	}
	if s.LookupPrecise("low") != nil || s.LookupPrecise("mid") != nil {
		t.Error("low-utility views should be gone")
	}
}

func TestConcurrentStoreOps(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sig := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.WriteCtx(context.Background(), mkView(sig, int64(i)), mkParts(1)); err != nil {
					t.Errorf("write: %v", err)
				}
				s.LookupPrecise(sig)
				if i%10 == 0 {
					s.Purge(int64(i / 2))
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---- integrity and fault-injection ----------------------------------------

// stubFaults is a scriptable FaultHook for storage tests.
type stubFaults struct {
	readErr  error
	writeErr error
	corrupt  bool
}

func (f *stubFaults) ReadView(string) error { return f.readErr }
func (f *stubFaults) WriteView(string) (bool, error) {
	return f.corrupt, f.writeErr
}

func TestConsumeVerifiesChecksum(t *testing.T) {
	s := NewStore()
	v := write(t, s, "ok", 8, 100)
	if v.Checksum == 0 {
		t.Fatal("Write recorded no checksum")
	}
	got, parts, err := s.ConsumeCtx(context.Background(), v.Path)
	if err != nil || got != v {
		t.Fatalf("Consume = %v, %v", got, err)
	}
	if len(parts) != 1 || len(parts[0]) != 8 {
		t.Fatalf("Consume decoded %d parts", len(parts))
	}
	for i, r := range parts[0] {
		if r[0].I != int64(i) || r[1].S != "x" {
			t.Fatalf("row %d decoded as %#v", i, r)
		}
	}
	// Second consume hits the hot cache and serves the same decoded rows.
	_, again, err := s.ConsumeCtx(context.Background(), v.Path)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0][0] != &parts[0][0] {
		t.Error("repeat consume did not share the cached decode")
	}
	// A missing path is a typed NotFoundError.
	var nf *NotFoundError
	if _, _, err := s.ConsumeCtx(context.Background(), "/nope"); !errors.As(err, &nf) {
		t.Fatalf("Consume missing = %v, want NotFoundError", err)
	}
}

func TestCorruptWriteDetectedOnConsume(t *testing.T) {
	s := NewStore()
	s.Faults = &stubFaults{corrupt: true}
	v := mkView("bad", 100)
	created, err := s.WriteCtx(context.Background(), v, mkParts(8))
	if err != nil || !created {
		t.Fatalf("corrupted write should still succeed silently: %v %v", created, err)
	}
	s.Faults = nil
	// The injected fault damaged the stored payload bytes underneath the
	// clean checksum.
	if checksumEncoded(v.Encoded) == v.Checksum {
		t.Fatal("corrupt write left payload matching its checksum")
	}
	// The raw accessor returns the view; only ConsumeCtx verifies.
	if _, err := s.Get(v.Path); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := s.ConsumeCtx(context.Background(), v.Path); !errors.As(err, &ce) {
		t.Fatalf("Consume corrupt = %v, want CorruptError", err)
	}
	if ce.Path != v.Path || ce.PreciseSig != "bad" {
		t.Errorf("CorruptError carries %q/%q", ce.Path, ce.PreciseSig)
	}
	// Corruption is sticky: a later consume still fails (no false cache).
	if _, _, err := s.ConsumeCtx(context.Background(), v.Path); !errors.As(err, &ce) {
		t.Error("corrupt view passed verification on retry")
	}
	if len(s.CachedPaths()) != 0 {
		t.Error("corrupt view must never enter the hot cache")
	}
}

func TestInjectedReadAndWriteFaults(t *testing.T) {
	s := NewStore()
	f := &stubFaults{}
	s.Faults = f

	f.writeErr = errInjected{}
	if _, err := s.WriteCtx(context.Background(), mkView("w", 10), mkParts(2)); err == nil {
		t.Fatal("write fault not surfaced")
	}
	if s.Len() != 0 {
		t.Fatal("failed write left state behind")
	}
	f.writeErr = nil
	if _, err := s.WriteCtx(context.Background(), mkView("w", 10), mkParts(2)); err != nil {
		t.Fatal("retried write should succeed")
	}

	f.readErr = errInjected{}
	if _, _, err := s.ConsumeCtx(context.Background(), PathFor("w", "job-w")); err == nil {
		t.Fatal("read fault not surfaced")
	}
	f.readErr = nil
	if _, _, err := s.ConsumeCtx(context.Background(), PathFor("w", "job-w")); err != nil {
		t.Fatalf("retried read failed: %v", err)
	}
}

type errInjected struct{}

func (errInjected) Error() string   { return "injected" }
func (errInjected) Transient() bool { return true }

// TestPurgeDeregistersBeforeDelete is the orphan-window regression: every
// storage-initiated reclamation must drop the metadata registration (via
// Deregister) before the file disappears, so metadata never references a
// deleted path.
func TestPurgeDeregistersBeforeDelete(t *testing.T) {
	s := NewStore()
	for i, sig := range []string{"a", "b", "c"} {
		write(t, s, sig, 2, int64(i))
	}
	var order []string
	s.Deregister = func(sig, path string) {
		// At deregistration time the file must still exist.
		if _, err := s.Get(path); err != nil {
			t.Errorf("Deregister(%s): file already deleted", path)
		}
		order = append(order, sig)
	}
	purged := s.Purge(1) // expiries 0 and 1
	if len(purged) != 2 || len(order) != 2 {
		t.Fatalf("purged %v, deregistered %v", purged, order)
	}
	for _, p := range purged {
		if _, err := s.Get(p); err == nil {
			t.Errorf("purged path %s still stored", p)
		}
	}

	// Same contract for min-utility reclamation.
	order = nil
	reclaimed := s.ReclaimLowestUtility(1, func(v *View) float64 { return 0 })
	if len(reclaimed) != 1 || len(order) != 1 {
		t.Fatalf("reclaimed %v, deregistered %v", reclaimed, order)
	}
}

// TestMultiPartitionRoundTrip covers parallel encode/decode over many
// partitions: every partition must come back in position, bit-exact.
func TestMultiPartitionRoundTrip(t *testing.T) {
	s := NewStore()
	parts := make([][]data.Row, 64)
	for p := range parts {
		rows := make([]data.Row, 50+p)
		for i := range rows {
			rows[i] = data.Row{data.Int(int64(p*1000 + i)), data.String_(fmt.Sprintf("p%d", p)), data.Float(float64(i) / 3)}
		}
		parts[p] = rows
	}
	v := mkView("multi", 100)
	if _, err := s.WriteCtx(context.Background(), v, parts); err != nil {
		t.Fatal(err)
	}
	if v.PartitionCount() != 64 {
		t.Fatalf("PartitionCount = %d", v.PartitionCount())
	}
	_, got, err := s.ConsumeCtx(context.Background(), v.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("decoded %d partitions, want %d", len(got), len(parts))
	}
	for p := range parts {
		if len(got[p]) != len(parts[p]) {
			t.Fatalf("partition %d: %d rows, want %d", p, len(got[p]), len(parts[p]))
		}
		for i := range parts[p] {
			for c := range parts[p][i] {
				a, b := got[p][i][c], parts[p][i][c]
				if a.K != b.K || a.I != b.I || a.F != b.F || a.S != b.S {
					t.Fatalf("partition %d row %d col %d: %#v != %#v", p, i, c, a, b)
				}
			}
		}
	}
}
