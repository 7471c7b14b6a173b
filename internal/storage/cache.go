package storage

import (
	"sort"
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
)

// DefaultCacheBudget is the hot-view cache budget a NewStore starts with.
// 64 MiB of decoded rows covers the working set of a busy recurring
// workload without competing with the executor for memory.
const DefaultCacheBudget int64 = 64 << 20

// cacheShardCount spreads the hot-view cache over independently locked
// shards so concurrent consumers of different views never contend. A
// power of two keeps the shard pick a mask.
const cacheShardCount = 16

// CacheStats is a point-in-time snapshot of the hot-view cache.
type CacheStats struct {
	// Hits and Misses count ConsumeCtx calls served from / past the cache.
	Hits   int64
	Misses int64
	// Evictions counts entries displaced to fit the byte budget (drops
	// from Delete/quarantine are not evictions).
	Evictions int64
	// Entries and Bytes are the resident decoded views and their decoded
	// (row-representation) footprint.
	Entries int64
	Bytes   int64
}

// cacheEntry holds one decoded view and its utility bookkeeping. bytes is
// the decoded (logical) size — that is what the entry costs in memory.
type cacheEntry struct {
	parts    [][]data.Row
	bytes    int64
	hits     int64
	lastUsed int64
}

// viewCache is a sharded, utility-ranked cache of decoded view partitions.
// Admission is miss-driven (ConsumeCtx decodes, then offers the result);
// eviction ranks resident entries by (hits, recency) across all shards and
// displaces the least useful until the newcomer fits the byte budget.
// Entries larger than the whole budget are never admitted — a single giant
// view must not wipe the working set.
//
// Locking: the hot path (get) takes only its shard's mutex. Admission and
// eviction serialize on admitMu and then take shard mutexes one at a time
// (admitMu → shard.mu, never the reverse), so lookups on other shards
// proceed while an admit evicts.
type viewCache struct {
	budget atomic.Int64 // total budget; <=0 disables the cache
	bytes  atomic.Int64 // resident decoded bytes across all shards
	clock  atomic.Int64 // logical use counter ordering recency

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	admitMu sync.Mutex // serializes admit/evict; get never takes it
	shards  [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

func (c *viewCache) init(budget int64) {
	c.budget.Store(budget)
	for i := range c.shards {
		c.shards[i].entries = map[string]*cacheEntry{}
	}
}

// shardFor picks the shard by FNV-1a over the path.
func (c *viewCache) shardFor(path string) *cacheShard {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * prime32
	}
	return &c.shards[h&(cacheShardCount-1)]
}

func (c *viewCache) tick() int64 { return c.clock.Add(1) }

func (c *viewCache) get(path string) ([][]data.Row, bool) {
	if c.budget.Load() <= 0 {
		return nil, false
	}
	sh := c.shardFor(path)
	sh.mu.Lock()
	e, ok := sh.entries[path]
	if ok {
		e.hits++
		e.lastUsed = c.tick()
	}
	parts := [][]data.Row(nil)
	if ok {
		parts = e.parts
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return parts, ok
}

// admit offers a freshly decoded view to the cache and returns the
// partitions the caller should hand out: if a concurrent consumer already
// admitted the same path, the resident copy wins so all consumers share
// one decode. bytes is the decoded (logical) size used for budgeting.
func (c *viewCache) admit(path string, parts [][]data.Row, bytes int64) [][]data.Row {
	budget := c.budget.Load()
	if budget <= 0 || bytes > budget {
		return parts
	}
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	sh := c.shardFor(path)
	sh.mu.Lock()
	if e, ok := sh.entries[path]; ok {
		e.hits++
		e.lastUsed = c.tick()
		resident := e.parts
		sh.mu.Unlock()
		return resident
	}
	sh.mu.Unlock()
	// Evict lowest-utility entries (fewest hits, then least recent, over
	// every shard) until the newcomer fits. Only admitters rank and evict;
	// the ranking walk takes one shard lock at a time.
	if c.bytes.Load()+bytes > budget {
		type ranked struct {
			path     string
			shard    *cacheShard
			bytes    int64
			hits     int64
			lastUsed int64
		}
		var all []ranked
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for p, e := range s.entries {
				all = append(all, ranked{p, s, e.bytes, e.hits, e.lastUsed})
			}
			s.mu.Unlock()
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].hits != all[j].hits {
				return all[i].hits < all[j].hits
			}
			if all[i].lastUsed != all[j].lastUsed {
				return all[i].lastUsed < all[j].lastUsed
			}
			return all[i].path < all[j].path
		})
		var evicted int64
		for _, r := range all {
			if c.bytes.Load()+bytes <= budget {
				break
			}
			r.shard.mu.Lock()
			// Re-check under the lock: a concurrent drop may have won.
			if e, ok := r.shard.entries[r.path]; ok {
				delete(r.shard.entries, r.path)
				c.bytes.Add(-e.bytes)
				evicted++
			}
			r.shard.mu.Unlock()
		}
		c.evictions.Add(evicted)
	}
	sh.mu.Lock()
	sh.entries[path] = &cacheEntry{parts: parts, bytes: bytes, lastUsed: c.tick()}
	sh.mu.Unlock()
	c.bytes.Add(bytes)
	return parts
}

// contains reports residency without touching hit/miss counters or
// recency — the read-only probe behind Store.CacheContains.
func (c *viewCache) contains(path string) bool {
	if c.budget.Load() <= 0 {
		return false
	}
	sh := c.shardFor(path)
	sh.mu.Lock()
	_, ok := sh.entries[path]
	sh.mu.Unlock()
	return ok
}

func (c *viewCache) drop(path string) {
	sh := c.shardFor(path)
	sh.mu.Lock()
	if e, ok := sh.entries[path]; ok {
		delete(sh.entries, path)
		c.bytes.Add(-e.bytes)
	}
	sh.mu.Unlock()
}

func (c *viewCache) dropAll() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			c.bytes.Add(-e.bytes)
		}
		sh.entries = map[string]*cacheEntry{}
		sh.mu.Unlock()
	}
}

func (c *viewCache) stats() CacheStats {
	var st CacheStats
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	st.Evictions = c.evictions.Load()
	st.Bytes = c.bytes.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return st
}

func (c *viewCache) paths() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for p := range sh.entries {
			out = append(out, p)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// SetCacheBudget resizes the hot-view cache byte budget. Zero or negative
// disables the cache; resizing drops resident entries (they re-admit on
// the next consume), keeping the policy trivially consistent.
func (s *Store) SetCacheBudget(budget int64) {
	s.cache.admitMu.Lock()
	defer s.cache.admitMu.Unlock()
	s.cache.dropAll()
	s.cache.budget.Store(budget)
}

// CacheBudget returns the hot-view cache's total byte budget.
func (s *Store) CacheBudget() int64 { return s.cache.budget.Load() }

// CacheStats returns a snapshot of hot-view cache counters and gauges.
func (s *Store) CacheStats() CacheStats { return s.cache.stats() }

// CacheContains reports whether the hot-view cache currently holds a
// decoded copy of path, without counting a hit or miss and without
// touching the entry's recency. The executor uses it for deterministic
// trace attribution: the cache verdict recorded on a ViewScan span must
// reflect the cache as of job start, not which concurrent consumer's
// decode happened to land first.
func (s *Store) CacheContains(path string) bool { return s.cache.contains(path) }

// CachedPaths returns the paths currently resident in the hot-view cache,
// sorted. Every cached path refers to a stored view — Delete drops the
// cache entry with the view.
func (s *Store) CachedPaths() []string { return s.cache.paths() }
