package obs

import (
	"math/bits"
	"sync/atomic"
)

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

// Snapshot reads the histogram: count, sum and its non-empty buckets in
// ascending order. Each field is its own atomic load, so a snapshot taken
// during an Observe may see the count without the sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for b := range h.buckets {
		if n := h.buckets[b].Load(); n > 0 {
			hs.Buckets = append(hs.Buckets, BucketCount{Le: int64(1)<<uint(b) - 1, Count: n})
		}
	}
	return hs
}

// MetricsSnapshot is a point-in-time read of a set of instruments, keyed
// by name. Maps marshal with sorted keys and bucket lists are
// ascending, so encoding/json output is deterministic for deterministic
// values.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}
