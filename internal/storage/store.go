// Package storage implements the cluster store for materialized views.
//
// Following the paper, a materialized view is a set of partitioned files
// whose "physical path" embeds the precise signature of the computation it
// captures, the ID of the job that produced it (provenance), and its expiry
// (§5.4, §6.2). The store only holds files: it never decides that a view
// should go. The job service (internal/core) retires views — expiry,
// reclamation, quarantine — dropping the metadata registration before it
// calls Delete, so in-flight jobs never read a dangling path.
//
// At rest a view is *encoded*: each partition is one columnar byte block
// (internal/data/colenc — typed vectors, dictionaries, null bitmaps), so
// the resident footprint is the compressed payload, not boxed rows.
// WriteCtx encodes partitions in parallel; ConsumeCtx — the data-plane
// read used by executing jobs — verifies the payload checksum, decodes in parallel,
// and serves repeat consumers out of a sharded, byte-budgeted hot-view
// cache of decoded partitions (zero-copy under the engine's read-only
// aliasing contract). Metadata-level accessors (Get, Views) never decode:
// listing and reclaim ranking work off headers alone.
//
// Integrity: WriteCtx records a checksum of the encoded payload on the
// view; ConsumeCtx verifies it and reports a CorruptError on mismatch, so silent
// corruption (or an injected fault, see internal/fault — a bit flip in the
// encoded bytes) is caught at consume time and the runtime can quarantine
// the view instead of returning wrong rows.
package storage

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cloudviews/internal/data"
	"cloudviews/internal/data/colenc"
	"cloudviews/internal/plan"
)

// FaultHook is the storage fault-injection surface (implemented by
// *fault.Injector). A nil hook costs nothing.
type FaultHook interface {
	// ReadView is consulted by ConsumeCtx; an error fails the read. Injected
	// errors are transient — the executor's vertex retry re-reads.
	ReadView(path string) error
	// WriteView is consulted by WriteCtx for a view about to be created: err
	// fails the write before anything is installed; corrupt=true lets the
	// write proceed but silently damages the stored payload (detected
	// later by checksum verification on consume).
	WriteView(path string) (corrupt bool, err error)
}

// ObsHook is the storage observability seam (see the Obs field). A nil
// hook costs nothing.
type ObsHook interface {
	ViewConsumed(path string, cacheHit bool, err error)
	ViewWritten(path string, encodedBytes int64, created bool)
}

// NotFoundError reports a read of a path the store does not hold — a
// dangling metadata registration or a premature purge. It is permanent:
// retrying the read cannot help, but the consuming job can be re-planned
// without the view (graceful degradation).
type NotFoundError struct{ Path string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("storage: no view at %q", e.Path) }

// CorruptError reports a checksum mismatch between a view's recorded
// checksum and its stored payload. Like NotFoundError it is permanent for
// this copy of the view; the runtime quarantines it and re-plans.
type CorruptError struct {
	Path       string
	PreciseSig string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: view %q failed integrity verification", e.Path)
}

// View is one materialized view: the output rows of a subgraph, laid out
// with an explicit physical design and stored as encoded columnar blocks.
type View struct {
	Path          string
	PreciseSig    string
	NormSig       string
	ProducerJobID string
	// ExpiresAt is the simulated time after which the view may be purged
	// (derived from input lineage, §5.4).
	ExpiresAt int64
	Schema    data.Schema
	Props     plan.PhysicalProps
	// Encoded holds the at-rest payload: one columnar block per partition
	// of the view's physical design (see internal/data/colenc). Set by
	// Store.WriteCtx; read through Store.ConsumeCtx, which decodes.
	Encoded [][]byte
	// Bytes is the true at-rest footprint — the total size of the encoded
	// blocks. Storage accounting (TotalBytes) and the service's
	// reclamation count this real footprint.
	Bytes int64
	// LogicalBytes is the decoded row-representation size (the sum of
	// Row.ByteSize). The cost model and the optimizer's reuse estimates
	// price a view scan on this — what the consumer materializes in
	// memory — independent of at-rest compression.
	LogicalBytes int64
	Rows         int64
	// Checksum is the content hash of the encoded payload recorded by
	// Store.WriteCtx; ConsumeCtx verifies the stored blocks against it.
	Checksum uint64
}

// PartitionCount returns the number of partitions in the view's physical
// design without decoding any of them.
func (v *View) PartitionCount() int { return len(v.Encoded) }

// PathFor builds the canonical physical path of a view, embedding the
// precise signature and producing job — the paper's trick for provenance
// and matching without extra metadata state.
func PathFor(preciseSig, jobID string) string {
	return fmt.Sprintf("/views/%s/%s.ss", preciseSig, jobID)
}

// Store is a concurrent view store with precise-signature write dedupe,
// consume-time integrity verification, and a decoded hot-view cache.
type Store struct {
	// Faults, if set, injects storage failures (reads, writes, silent
	// corruption). Wired by fault-injection tests and chaos soaks.
	Faults FaultHook
	// Gate, if set, is consulted before every ConsumeCtx touches the store —
	// the circuit-breaker admission seam. A non-nil error short-circuits
	// the read (nothing is looked up, verified, or decoded) and is returned
	// as-is, so the owner controls its classification; the job frontend
	// wires the store breaker's OpenError here and replans without the
	// view. Gate rejections are never reported to OnConsume: the breaker
	// already accounted for them.
	Gate func(path string) error
	// OnConsume, if set, observes the outcome of every real consume attempt
	// (after Gate admission): err == nil is a healthy read, anything else a
	// dependency failure. Attempts abandoned by context cancellation are
	// not reported — they say nothing about the store's health.
	OnConsume func(path string, err error)

	// Obs, if set, is the storage observability seam (see internal/obs):
	// ViewConsumed fires per real consume attempt (Gate rejections and
	// context-abandoned reads excluded, like OnConsume) with whether the
	// hot cache served it; ViewWritten fires per write that reached the
	// install step, with the encoded footprint and whether this call
	// created the view (false = deduplicated against a resident copy).
	// Hooks must not call back into the store. Nil costs one branch.
	Obs ObsHook

	mu        sync.RWMutex
	byPath    map[string]*View
	byPrecise map[string]string // precise sig -> path
	bytes     int64             // encoded (at-rest) bytes

	cache viewCache
}

// NewStore returns an empty store with the hot-view cache at its default
// budget (DefaultCacheBudget; SetCacheBudget adjusts or disables it).
func NewStore() *Store {
	s := &Store{
		byPath:    map[string]*View{},
		byPrecise: map[string]string{},
	}
	s.cache.init(DefaultCacheBudget)
	return s
}

// checksumEncoded folds every encoded partition block with its partition
// index (FNV-1a over the block bytes). Ordering matters: the physical
// layout is part of what WriteCtx sealed, so reordered, truncated, or
// bit-damaged payloads must verify differently.
func checksumEncoded(blocks [][]byte) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i, b := range blocks {
		h = h*prime64 ^ uint64(i+1)
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// corruptPayload returns a damaged copy of the encoded payload: one bit is
// flipped in the middle of the first non-empty block. Only that block (and
// the outer slice) is fresh — the remaining blocks alias the clean
// payload. This models silent at-rest data damage; only consume-time
// checksum verification can catch it.
func corruptPayload(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	copy(out, blocks)
	for i, b := range out {
		if len(b) > 0 {
			dam := append([]byte(nil), b...)
			dam[len(dam)/2] ^= 0x10
			out[i] = dam
			break
		}
	}
	return out
}

// encodeParallel encodes every partition into its columnar block, fanning
// out across partitions, and returns the blocks plus the payload accounting
// (encoded bytes, decoded row bytes, rows).
func encodeParallel(ctx context.Context, parts [][]data.Row) (blocks [][]byte, encBytes, logicalBytes, rows int64, err error) {
	blocks = make([][]byte, len(parts))
	logical := make([]int64, len(parts))
	errs := make([]error, len(parts))
	partitionRange(len(parts), func(i int) {
		// Chunk-boundary cancellation poll: skipped partitions leave nil
		// blocks; WriteCtx re-checks the context before installing anything,
		// so a partial encode never becomes a resident view.
		if ctx.Err() != nil {
			return
		}
		blocks[i], errs[i] = colenc.Encode(parts[i])
		var lb int64
		for _, r := range parts[i] {
			lb += r.ByteSize()
		}
		logical[i] = lb
	})
	for i := range parts {
		if errs[i] != nil {
			return nil, 0, 0, 0, errs[i]
		}
		encBytes += int64(len(blocks[i]))
		logicalBytes += logical[i]
		rows += int64(len(parts[i]))
	}
	return blocks, encBytes, logicalBytes, rows, nil
}

// decodeParallel decodes every block back into rows, fanning out across
// partitions. The whole view decodes into one Value block and one
// row-header block, partition after partition. A decoded view may be
// cached and live for many instances; decoded per partition, its blocks
// would have the sizes of the per-partition emit blocks that jobs
// allocate and drop by the thousand, and scattered among those each would
// keep a mostly empty heap span in use after every collection.
func decodeParallel(ctx context.Context, blocks [][]byte) ([][]data.Row, error) {
	type slot struct {
		blk    colenc.Block
		values []data.Value
		rows   []data.Row
	}
	slots := make([]slot, len(blocks))
	var nvalues, nrows int
	for i, b := range blocks {
		blk, err := colenc.Open(b)
		if err != nil {
			return nil, err
		}
		slots[i].blk = blk
		nvalues += blk.Rows * blk.Cols
		nrows += blk.Rows
	}
	values, headers := make([]data.Value, nvalues), make([]data.Row, nrows)
	for i := range slots {
		v, r := slots[i].blk.Rows*slots[i].blk.Cols, slots[i].blk.Rows
		slots[i].values, values = values[:v:v], values[v:]
		slots[i].rows, headers = headers[:r:r], headers[r:]
	}
	parts := make([][]data.Row, len(blocks))
	errs := make([]error, len(blocks))
	partitionRange(len(blocks), func(i int) {
		// Chunk-boundary cancellation poll: skipped partitions stay nil;
		// ConsumeCtx re-checks the context before serving or caching, so a
		// partial decode is never observed.
		if ctx.Err() != nil {
			return
		}
		s := slots[i]
		parts[i], errs[i] = s.rows, s.blk.Into(s.values, s.rows)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// partitionRange runs fn(i) for i in [0, n) with up to min(n, GOMAXPROCS)
// goroutines. fn writes only slot i, and the join establishes the
// happens-before edge back to the caller. Only a single partition, or a
// single usable CPU, runs inline; any n ≥ 2 fans out however few rows
// each partition holds.
func partitionRange(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n <= 1 || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// WriteCtx encodes parts into the view's at-rest payload and installs it,
// reporting whether this call created the view. A second view for an
// already-materialized precise signature is not an error: build-lock
// expiry (§6.1 fault tolerance) can hand the lock to a takeover builder
// while the original is still running, and equal precise signatures
// compute byte-identical results, so the race resolves first-writer-wins —
// the losing write is discarded and WriteCtx returns created=false. A path
// collision where the resident view has the same precise signature and
// producer is the producer's own retry — a vertex that crashed after its
// write landed re-runs, and the installed copy already is this payload —
// so it too returns created=false. Any other path reuse is rejected:
// paths embed the producing job ID, so that collision means one job wrote
// two different views to the same place.
//
// WriteCtx records the payload checksum on the view. An injected write
// fault fails the call before anything is installed (safe to retry); an
// injected corruption stores a bit-damaged payload under the clean
// checksum, modeling silent data loss that only consume-time verification
// can catch.
//
// The write runs under the job's lifecycle: the partition-parallel encode
// polls ctx at chunk boundaries, and the context is re-checked before the
// install lock — a cancelled job's write fails with the context's error
// and never installs a (possibly partial) payload.
func (s *Store) WriteCtx(ctx context.Context, v *View, parts [][]data.Row) (created bool, err error) {
	// Cheap pre-check so a write that lost the build race does not pay for
	// an encode it will discard. Results are revalidated under the lock.
	s.mu.RLock()
	resident, pathDup := s.byPath[v.Path]
	_, sigDup := s.byPrecise[v.PreciseSig]
	s.mu.RUnlock()
	if pathDup {
		if resident.PreciseSig == v.PreciseSig && resident.ProducerJobID == v.ProducerJobID {
			return false, nil // the producer's own retry; already installed
		}
		return false, fmt.Errorf("storage: path %q already exists", v.Path)
	}
	if sigDup {
		return false, nil
	}

	// Encode outside the lock: the payload walk is the expensive part, and
	// concurrent writers of distinct views must not serialize on it.
	blocks, encBytes, logicalBytes, rows, err := encodeParallel(ctx, parts)
	if err != nil {
		return false, fmt.Errorf("storage: encode %q: %w", v.Path, err)
	}
	// A cancel during the encode leaves nil blocks behind; fail the write
	// here, before anything is installed. (A cancel arriving after this
	// check means the encode ran to completion — installing is safe.)
	if cerr := ctx.Err(); cerr != nil {
		return false, fmt.Errorf("storage: write %q: %w", v.Path, cerr)
	}
	checksum := checksumEncoded(blocks)

	created, err = s.install(v, blocks, checksum, encBytes, logicalBytes, rows)
	// Observability fires outside the store lock (hooks must not call back
	// into the store, but they may take their own locks) and only for
	// attempts that reached the install step — failed or deduplicated
	// writes included, pre-check short-circuits not.
	if err == nil && s.Obs != nil {
		s.Obs.ViewWritten(v.Path, encBytes, created)
	}
	return created, err
}

// install revalidates the dedup conditions under the write lock and
// publishes the encoded payload (see WriteCtx for the semantics).
func (s *Store) install(v *View, blocks [][]byte, checksum uint64, encBytes, logicalBytes, rows int64) (created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.byPath[v.Path]; ok {
		if res.PreciseSig == v.PreciseSig && res.ProducerJobID == v.ProducerJobID {
			return false, nil
		}
		return false, fmt.Errorf("storage: path %q already exists", v.Path)
	}
	if _, ok := s.byPrecise[v.PreciseSig]; ok {
		return false, nil
	}
	corrupt := false
	if s.Faults != nil {
		var ferr error
		corrupt, ferr = s.Faults.WriteView(v.Path)
		if ferr != nil {
			return false, fmt.Errorf("storage: write %q: %w", v.Path, ferr)
		}
	}
	// Rows, bytes, and the checksum describe the payload the producer
	// sealed; an injected corruption swaps in a damaged payload underneath
	// them, so consume-time verification detects the mismatch.
	v.Rows, v.Bytes, v.LogicalBytes = rows, encBytes, logicalBytes
	v.Encoded = blocks
	v.Checksum = checksum
	if corrupt {
		v.Encoded = corruptPayload(blocks)
	}
	s.byPath[v.Path] = v
	s.byPrecise[v.PreciseSig] = v.Path
	s.bytes += v.Bytes
	return true, nil
}

// Get returns the view at path without integrity verification or decoding
// — the metadata-level accessor used by maintenance and tests. Listing and
// reclaim ranking work off the returned headers alone; executing jobs read
// views through ConsumeCtx.
func (s *Store) Get(path string) (*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.byPath[path]
	if !ok {
		return nil, &NotFoundError{Path: path}
	}
	return v, nil
}

// ConsumeCtx returns the view at path, decoded, for a consuming job. The
// Gate (circuit breaker) is consulted first — a rejection returns without
// touching the store and without an OnConsume report. Then injected read
// faults surface (transient — the vertex retry re-reads), the hot cache is
// tried, and on a miss the encoded payload is verified against the
// checksum recorded at WriteCtx and decoded partition-parallel. A mismatch
// (or an undecodable block) is a CorruptError; the caller is expected to
// quarantine the view and re-plan without it.
//
// Admitted reads poll ctx at the partition boundaries of the parallel
// decode and re-check it before classifying failures or caching: an
// attempt abandoned by cancellation returns the context's error (never a
// spurious CorruptError from an interrupted decode) and is not reported
// to OnConsume.
//
// The returned partitions may be shared with other consumers (the cache
// serves them zero-copy): callers must treat rows as immutable, the same
// read-only aliasing contract every view scan already obeys.
func (s *Store) ConsumeCtx(ctx context.Context, path string) (*View, [][]data.Row, error) {
	if s.Gate != nil {
		if err := s.Gate(path); err != nil {
			return nil, nil, err
		}
	}
	v, parts, hit, err := s.consume(ctx, path)
	if ctx.Err() == nil {
		if s.OnConsume != nil {
			s.OnConsume(path, err)
		}
		if s.Obs != nil {
			s.Obs.ViewConsumed(path, hit, err)
		}
	}
	return v, parts, err
}

func (s *Store) consume(ctx context.Context, path string) (*View, [][]data.Row, bool, error) {
	if s.Faults != nil {
		if err := s.Faults.ReadView(path); err != nil {
			return nil, nil, false, fmt.Errorf("storage: read %q: %w", path, err)
		}
	}
	s.mu.RLock()
	v, ok := s.byPath[path]
	s.mu.RUnlock()
	if !ok {
		return nil, nil, false, &NotFoundError{Path: path}
	}
	if parts, hit := s.cache.get(path); hit {
		return v, parts, true, nil
	}
	// Verify and decode outside the lock: the payload is immutable.
	// Concurrent first consumers may both decode; both admit the same
	// answer and the cache keeps one. The checksum fold itself is never
	// interrupted mid-walk — a partial hash would misreport a healthy view
	// as corrupt — so the cancellation check sits between the stages.
	if checksumEncoded(v.Encoded) != v.Checksum {
		return nil, nil, false, &CorruptError{Path: path, PreciseSig: v.PreciseSig}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, false, fmt.Errorf("storage: read %q: %w", path, cerr)
	}
	parts, err := decodeParallel(ctx, v.Encoded)
	if err != nil {
		// The checksum matched but the payload does not parse: damage that
		// slipped under the hash, still quarantinable corruption.
		return nil, nil, false, &CorruptError{Path: path, PreciseSig: v.PreciseSig}
	}
	// A cancel during the decode leaves nil partitions; return the
	// context's error rather than serving — or worse, caching — a partial
	// decode.
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, false, fmt.Errorf("storage: read %q: %w", path, cerr)
	}
	parts = s.cache.admit(path, parts, v.LogicalBytes)
	return v, parts, false, nil
}

// Delete removes the view at path, including any hot-cache entry for it —
// a deleted (or quarantined) view must not be served from cache. It is
// idempotent.
func (s *Store) Delete(path string) {
	s.mu.Lock()
	if v, ok := s.byPath[path]; ok {
		delete(s.byPath, path)
		delete(s.byPrecise, v.PreciseSig)
		s.bytes -= v.Bytes
	}
	s.mu.Unlock()
	s.cache.drop(path)
}

// TotalBytes returns the at-rest (encoded) bytes currently held by all
// views — the real resident footprint, not the decoded row size.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Len returns the number of stored views.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byPath)
}

// Views returns a snapshot of all stored views, ordered by path. Nothing
// is decoded: maintenance and ranking consume headers only.
func (s *Store) Views() []*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*View, 0, len(s.byPath))
	for _, v := range s.byPath {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
