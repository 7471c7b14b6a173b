// Package fault is the deterministic fault-injection layer of the job
// service (the testable half of the paper's §6.1 fault-tolerance story).
//
// One Injector plugs into every layer through the small hook interfaces
// those layers export — executor vertices (exec.FaultHook), the view store
// (storage.FaultHook), and metadata lookups (metadata.FaultHook) — and
// injects the fault classes production analytics services treat as
// routine: operator crashes, storage read/write errors, silent
// view-payload corruption, metadata-service blackouts, and slow stages.
//
// Every decision is a pure function of (seed, fault class, site key,
// occurrence index): no clocks, no global RNG, no dependence on goroutine
// scheduling. Sites keyed by job and vertex therefore fire identically on
// the serial and parallel execution paths, and a chaos run with a given
// seed injects a reproducible fault schedule. (For sites shared across
// concurrent jobs — a view path read by many consumers — the occurrence
// index is claimed in arrival order, so *which* job absorbs a given fault
// follows scheduling; the rates and the recovery invariants do not.)
//
// Injected failures are transient: they implement Transient() true, which
// tells the executor's vertex-retry loop that re-running the work can
// succeed. Corruption is deliberately not an error at injection time — it
// is silent (a bit flip in the view's encoded payload bytes), and surfaces
// later as a storage.CorruptError when a consumer verifies the view's
// checksum over those bytes.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cloudviews/internal/plan"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindVertexCrash crashes an operator attempt after its kernel ran.
	KindVertexCrash Kind = iota
	// KindVertexSlow adds simulated latency to a vertex (slow stage).
	KindVertexSlow
	// KindStorageRead fails a view read.
	KindStorageRead
	// KindStorageWrite fails a view write before anything is installed.
	KindStorageWrite
	// KindCorruptWrite silently corrupts a view's stored payload — the
	// store flips a bit in the encoded columnar bytes underneath the
	// recorded checksum.
	KindCorruptWrite
	// KindMetaBlackout fails a metadata-service lookup.
	KindMetaBlackout
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindVertexCrash:
		return "vertex-crash"
	case KindVertexSlow:
		return "vertex-slow"
	case KindStorageRead:
		return "storage-read"
	case KindStorageWrite:
		return "storage-write"
	case KindCorruptWrite:
		return "corrupt-write"
	case KindMetaBlackout:
		return "meta-blackout"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Error is one injected failure. It is transient by construction: the
// injector re-rolls per attempt or occurrence, so retrying the failed
// operation can succeed — which is exactly what the executor's vertex
// retry and the frontend's degradation ladder exploit.
type Error struct {
	Kind Kind
	Site string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Site)
}

// Transient marks injected faults as retryable (see exec.Transient).
func (e *Error) Transient() bool { return true }

// Config sets per-site firing probabilities (0 disables a class) and the
// magnitudes of the non-error disturbances.
type Config struct {
	// Seed scopes the whole schedule; two injectors with the same Seed and
	// Config make identical decisions at identical sites.
	Seed int64

	// VertexCrash is the probability that one operator attempt crashes
	// after its kernel completes (per attempt — retries re-roll).
	VertexCrash float64
	// VertexSlow is the probability a vertex straggles; SlowDelay is the
	// simulated latency added when it does.
	VertexSlow float64
	SlowDelay  float64
	// StorageRead / StorageWrite are per-operation view store failure
	// probabilities.
	StorageRead  float64
	StorageWrite float64
	// CorruptWrite is the probability a created view's payload is silently
	// corrupted on disk (detected later by checksum verification).
	CorruptWrite float64
	// MetaBlackout is the per-lookup probability the metadata service is
	// unreachable.
	MetaBlackout float64
}

// Counts reports how many faults of each kind actually fired.
type Counts struct {
	VertexCrashes int64
	SlowVertices  int64
	StorageReads  int64
	StorageWrites int64
	CorruptWrites int64
	MetaBlackouts int64
}

// Injector makes the fault decisions. It is safe for concurrent use by
// every layer of one or more services.
type Injector struct {
	cfg   Config
	fired [numKinds]atomic.Int64

	// occ claims occurrence indexes for sites whose callers carry no
	// attempt number of their own (storage paths, metadata lookups).
	mu  sync.Mutex
	occ map[string]uint64
}

// NewInjector returns an injector for the given schedule.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, occ: map[string]uint64{}}
}

// Counts snapshots the per-kind fired counters.
func (in *Injector) Counts() Counts {
	return Counts{
		VertexCrashes: in.fired[KindVertexCrash].Load(),
		SlowVertices:  in.fired[KindVertexSlow].Load(),
		StorageReads:  in.fired[KindStorageRead].Load(),
		StorageWrites: in.fired[KindStorageWrite].Load(),
		CorruptWrites: in.fired[KindCorruptWrite].Load(),
		MetaBlackouts: in.fired[KindMetaBlackout].Load(),
	}
}

// next claims the occurrence index for a keyed site.
func (in *Injector) next(key string) uint64 {
	in.mu.Lock()
	n := in.occ[key]
	in.occ[key] = n + 1
	in.mu.Unlock()
	return n
}

// decide is the pure decision function: hash (seed, kind, site, occurrence)
// into [0,1) and compare against p. fnv-1a over the key material feeds a
// splitmix64 finalizer so neighboring occurrences decorrelate.
func (in *Injector) decide(kind Kind, site string, occ uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for _, b := range []byte(site) {
		mix(b)
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(in.cfg.Seed) >> (8 * i)))
		mix(byte(occ >> (8 * i)))
	}
	mix(byte(kind))
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if float64(h>>11)/(1<<53) >= p {
		return false
	}
	in.fired[kind].Add(1)
	return true
}

// ---- exec.FaultHook -------------------------------------------------------

// VertexDone implements the executor hook: it is consulted after each
// operator attempt and crashes it with the configured probability. The
// attempt number is part of the decision key, so a retried vertex re-rolls.
func (in *Injector) VertexDone(job, site string, kind plan.OpKind, attempt int) error {
	if in.decide(KindVertexCrash, "vertex|"+job+"|"+site, uint64(attempt), in.cfg.VertexCrash) {
		return &Error{Kind: KindVertexCrash, Site: job + "/" + site}
	}
	return nil
}

// VertexDelay implements the executor hook's slow-stage side: a straggling
// vertex gains SlowDelay simulated seconds of latency.
func (in *Injector) VertexDelay(job, site string, kind plan.OpKind) float64 {
	if in.decide(KindVertexSlow, "slow|"+job+"|"+site, 0, in.cfg.VertexSlow) {
		return in.cfg.SlowDelay
	}
	return 0
}

// ---- storage.FaultHook ----------------------------------------------------

// ReadView implements the view-store hook: transient read failure.
func (in *Injector) ReadView(path string) error {
	if in.decide(KindStorageRead, "sread|"+path, in.next("sread|"+path), in.cfg.StorageRead) {
		return &Error{Kind: KindStorageRead, Site: path}
	}
	return nil
}

// WriteView implements the view-store hook consulted when a view is about
// to be created: err fails the write outright (transient — the retried
// vertex re-rolls); corrupt=true lets the write proceed but silently
// damages the stored payload, to be caught by checksum verification on
// consume.
func (in *Injector) WriteView(path string) (corrupt bool, err error) {
	if in.decide(KindStorageWrite, "swrite|"+path, in.next("swrite|"+path), in.cfg.StorageWrite) {
		return false, &Error{Kind: KindStorageWrite, Site: path}
	}
	if in.decide(KindCorruptWrite, "corrupt|"+path, 0, in.cfg.CorruptWrite) {
		return true, nil
	}
	return false, nil
}

// ---- metadata.FaultHook ---------------------------------------------------

// Lookup implements the metadata hook: a fired decision simulates the
// service being unreachable for one TryRelevantViews round trip.
func (in *Injector) Lookup(vc string) error {
	if in.decide(KindMetaBlackout, "meta|"+vc, in.next("meta|"+vc), in.cfg.MetaBlackout) {
		return &Error{Kind: KindMetaBlackout, Site: vc}
	}
	return nil
}
