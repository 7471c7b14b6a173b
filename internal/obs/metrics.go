package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// regShardCount spreads the instrument index over independently published
// shards so concurrent first-registrations of unrelated names never
// contend. A power of two keeps the shard pick a mask.
const regShardCount = 16

// Counter is a monotonically increasing count. The value sits alone on
// its cache line (the padding) so two hot counters bumped from different
// goroutines never false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter by n (negative n is ignored — counters only
// go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds v=0,
// bucket i holds 2^(i-1) ≤ v < 2^i. 33 buckets cover every logical-tick
// duration a simulated job can produce with one overflow bucket at the
// top.
const histBuckets = 33

// Histogram accumulates logical-tick durations into power-of-two buckets.
// Observations are lock-free atomic bumps; negative values clamp to zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration (in logical ticks).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[b].Add(1)
}

// BucketCount is one non-empty histogram bucket in a snapshot: Le is the
// bucket's inclusive upper bound in ticks (2^i - 1), Count how many
// observations landed in it.
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// MetricsSnapshot is a point-in-time read of every registered instrument,
// keyed by name. Maps marshal with sorted keys and bucket lists are
// ascending, so encoding/json output is deterministic for deterministic
// values.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// instruments is one shard's immutable name index. Registration publishes
// a fresh copy (copy-on-write); readers load the pointer and index the
// maps lock-free.
type instruments struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

type regShard struct {
	mu  sync.Mutex // serializes registration only
	idx atomic.Pointer[instruments]
}

// Registry is a sharded, copy-on-write index of named instruments. The
// zero value is not usable; call NewRegistry. Instrument lookup by name is
// lock-free; first registration of a name copies and republishes its
// shard's index. Safe for concurrent use.
type Registry struct {
	shards [regShardCount]regShard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].idx.Store(&instruments{
			counters: map[string]*Counter{},
			hists:    map[string]*Histogram{},
		})
	}
	return r
}

// shardFor picks the shard by FNV-1a over the instrument name.
func (r *Registry) shardFor(name string) *regShard {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * prime32
	}
	return &r.shards[h&(regShardCount-1)]
}

// Counter returns the named counter, registering it on first use. Hot
// paths should resolve once and hold the pointer; the lookup itself is
// still lock-free.
func (r *Registry) Counter(name string) *Counter {
	sh := r.shardFor(name)
	if c, ok := sh.idx.Load().counters[name]; ok {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.idx.Load()
	if c, ok := cur.counters[name]; ok {
		return c
	}
	c := &Counter{}
	next := &instruments{
		counters: make(map[string]*Counter, len(cur.counters)+1),
		hists:    cur.hists,
	}
	for k, v := range cur.counters {
		next.counters[k] = v
	}
	next.counters[name] = c
	sh.idx.Store(next)
	return c
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	sh := r.shardFor(name)
	if h, ok := sh.idx.Load().hists[name]; ok {
		return h
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.idx.Load()
	if h, ok := cur.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	next := &instruments{
		counters: cur.counters,
		hists:    make(map[string]*Histogram, len(cur.hists)+1),
	}
	for k, v := range cur.hists {
		next.hists[k] = v
	}
	next.hists[name] = h
	sh.idx.Store(next)
	return h
}

// Snapshot reads every instrument into one MetricsSnapshot. Each shard's
// index is loaded once (the copy-on-write publish makes it internally
// consistent: an instrument never vanishes and the set read is the set
// that existed at the load); values are atomic loads.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for i := range r.shards {
		idx := r.shards[i].idx.Load()
		for name, c := range idx.counters {
			snap.Counters[name] = c.Value()
		}
		for name, h := range idx.hists {
			hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
			for b := range h.buckets {
				if n := h.buckets[b].Load(); n > 0 {
					le := int64(1)<<uint(b) - 1
					hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
				}
			}
			sort.Slice(hs.Buckets, func(i, j int) bool { return hs.Buckets[i].Le < hs.Buckets[j].Le })
			snap.Histograms[name] = hs
		}
	}
	return snap
}
