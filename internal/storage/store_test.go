package storage

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"cloudviews/internal/data"
	"cloudviews/internal/data/colenc"
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
	if len(v.Encoded) != 1 {
		t.Errorf("partitions = %d", len(v.Encoded))
	}
	got, err := s.Get(v.Path)
	if err != nil || got != v {
		t.Fatalf("Get = %v, %v", got, err)
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
	if got, err := s.Get(first.Path); s.Len() != 1 || err != nil || got != first {
		t.Error("losing write must leave the first writer in place")
	}
	if _, err := s.Get("/views/other"); err == nil {
		t.Error("losing write must not install its path")
	}
}

// TestDeleteAndPurge purges the way the job service does — every view
// whose expiry has passed, found through the header listing, goes by
// Delete — and checks the accounting and the signature index follow.
func TestDeleteAndPurge(t *testing.T) {
	s := NewStore()
	for i, exp := range []int64{5, 10, 15} {
		write(t, s, fmt.Sprintf("s%d", i), 2, exp)
	}
	for _, v := range s.Views() {
		if v.ExpiresAt <= 10 {
			s.Delete(v.Path)
		}
	}
	survivor, err := s.Get(PathFor("s2", "job-s2"))
	if err != nil || s.Len() != 1 || s.TotalBytes() != survivor.Bytes {
		t.Fatalf("after purge: survivor err=%v len=%d bytes=%d", err, s.Len(), s.TotalBytes())
	}
	var nf *NotFoundError
	if _, err := s.Get(PathFor("s0", "job-s0")); !errors.As(err, &nf) {
		t.Errorf("purged view still readable: %v", err)
	}
	// A purged signature is free again: a rebuild installs.
	if created, err := s.WriteCtx(context.Background(), mkView("s0", 20), mkParts(2)); err != nil || !created {
		t.Errorf("rewrite after purge: created=%v err=%v", created, err)
	}
	s.Delete(PathFor("s0", "job-s0"))
	s.Delete(survivor.Path)
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
				s.Get(PathFor(sig, "job-"+sig))
				if i%10 == 0 {
					// Delete a view another goroutine may be writing.
					other := fmt.Sprintf("g%d-%d", (g+1)%8, i/2)
					s.Delete(PathFor(other, "job-"+other))
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
	if len(v.Encoded) != 64 {
		t.Fatalf("partitions = %d", len(v.Encoded))
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

// TestDecodeViewIntoOneBlock pins the decoded layout of a view: small
// and large partitions alike come back in one Value block, partition
// after partition, read back exactly what was encoded, and each row is
// exactly its width.
func TestDecodeViewIntoOneBlock(t *testing.T) {
	mk := func(rows ...int) [][]data.Row {
		parts := make([][]data.Row, len(rows))
		for p, n := range rows {
			parts[p] = make([]data.Row, n)
			for i := range parts[p] {
				parts[p][i] = data.Row{data.Int(int64(p*1000 + i)), data.String_(fmt.Sprint("s", i%3))}
			}
		}
		return parts
	}
	adjacent := func(a, b *data.Value) bool {
		return uintptr(unsafe.Pointer(b)) == uintptr(unsafe.Pointer(a))+unsafe.Sizeof(*a)
	}
	for _, sizes := range [][]int{{5, 0, 3}, {2000, 0, 1000}} {
		parts := mk(sizes...)
		blocks := make([][]byte, len(parts))
		for i, p := range parts {
			b, err := colenc.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			blocks[i] = b
		}
		got, err := decodeParallel(context.Background(), blocks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, parts) {
			t.Fatalf("%v: decoded %v, want %v", sizes, got, parts)
		}
		for _, p := range got {
			for _, r := range p {
				if cap(r) != len(r) {
					t.Fatalf("%v: row %v: cap %d", sizes, r, cap(r))
				}
			}
		}
		if last := got[0][sizes[0]-1]; !adjacent(&last[len(last)-1], &got[2][0][0]) {
			t.Errorf("partitions of %v rows did not decode into one block", sizes)
		}
	}
}
