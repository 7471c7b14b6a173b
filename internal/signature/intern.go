package signature

import "sync"

// Normalized signature strings are 32-byte hex values recomputed for every
// job, and recurring workloads produce the same handful of them millions
// of times. A process-wide intern table collapses them to one allocation
// each (precise signatures change with every instance's input GUIDs, so
// they are not interned); sharding keeps concurrent submissions from serializing on one
// lock, and a per-shard cap bounds the table on adversarial workloads
// (past the cap strings are returned un-interned, which is only a lost
// optimization).
const (
	internShardCount = 64
	internShardCap   = 1 << 14
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var internShards [internShardCount]internShard

// InternBytes returns the canonical string for b, allocating only the
// first time a given value is seen.
func InternBytes(b []byte) string { return intern(b) }

// Intern returns the canonical instance of s, so equal signature strings
// arriving from outside the hash path (view scans, metadata annotations)
// share storage with computed ones.
func Intern(s string) string { return intern(s) }

// intern is both entry points' body. The shard is picked by FNV-1a over
// the bytes: signature strings are hex, so indexing by the first byte
// alone would use 16 of the shards. The read path does not allocate: the
// map lookup with string(v) is recognized by the compiler. A new string
// value is stored as string(v) — a copy of a byte slice, or the string
// itself.
func intern[T string | []byte](v T) string {
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h = (h ^ uint32(v[i])) * 16777619
	}
	sh := &internShards[h%internShardCount]
	sh.mu.RLock()
	s, ok := sh.m[string(v)]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.m[string(v)]; ok {
		return s
	}
	s = string(v)
	if sh.m == nil {
		sh.m = make(map[string]string, 64)
	}
	if len(sh.m) < internShardCap {
		sh.m[s] = s
	}
	return s
}

// Hash64 returns the 64-bit FNV-1a hash of s: a stable, well-mixed hash
// of a string, used to seed workgen's per-job statistics from the job ID
// and to fold signatures into the benchmark's output digests. Over the
// 32-byte hex strings signatures intern to it costs a few tens of
// nanoseconds.
func Hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
