package analyzer

import (
	"runtime"
	"sync"

	"cloudviews/internal/signature"
	"cloudviews/internal/workload"
)

// shard.go is the scale-out substrate of the analyzer (DESIGN.md §12):
// the mining passes shard every observation by the top bits of its
// normalized-signature hash, so all occurrences of one computation land in
// exactly one shard, each worker owns a contiguous shard range, and a
// worker folding its shards in repository order reproduces the serial
// walk's per-signature fold order bit for bit — no locks, no cross-worker
// merges of partially-folded floats.

const (
	// aggShardBits/aggShardCount size the signature shard space. 64 shards
	// comfortably over-partition any realistic GOMAXPROCS while keeping a
	// shard index in one byte.
	aggShardBits  = 6
	aggShardCount = 1 << aggShardBits

	// shardSkip marks observations excluded by the window or scope filter;
	// it compares above every owned shard range, so workers skip it for
	// free.
	shardSkip = 0xFF

	// minParallelObs is the input size below which the fold runs on a
	// single worker: fan-out costs more than the work it would split.
	minParallelObs = 4096
)

// sigShard maps a normalized signature to its fold shard — the top
// aggShardBits of the interned signature string's 64-bit hash.
func sigShard(sig string) uint8 {
	return uint8(signature.Hash64(sig) >> (64 - aggShardBits))
}

// shardObservations computes each observation's fold shard in parallel
// chunks: shardSkip for observations outside [from, to] or outside the
// cfg scope (nil cfg means unscoped), sigShard otherwise. The single byte
// per observation it allocates is what lets every later pass — aggregate,
// overlap stats, coordination — fan out over the same snapshot without
// re-filtering or re-hashing, and is the only per-observation state the
// parallel pipeline materializes.
func shardObservations(obs []workload.Observation, from, to int64, cfg *Config) []uint8 {
	shards := make([]uint8, len(obs))
	scoped := cfg != nil && cfg.scoped()
	chunk := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := &obs[i]
			if o.Job.Instance < from || o.Job.Instance > to ||
				(scoped && !scopeMatch(o, cfg)) {
				shards[i] = shardSkip
				continue
			}
			shards[i] = sigShard(o.NormSig)
		}
	}
	workers := foldWorkers(len(obs))
	if workers == 1 {
		chunk(0, len(obs))
		return shards
	}
	runWorkers(workers, func(w int) {
		chunk(w*len(obs)/workers, (w+1)*len(obs)/workers)
	})
	return shards
}

// foldWorkers returns the worker count for a sharded fold over n
// observations: GOMAXPROCS capped by the shard count, or one worker when
// the input is too small to be worth splitting.
func foldWorkers(n int) int {
	if n < minParallelObs {
		return 1
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > aggShardCount {
		workers = aggShardCount
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// workerShardRange returns the contiguous shard range [lo, hi) owned by
// worker w of workers. The ranges tile [0, aggShardCount) exactly, so
// every non-skipped observation is folded by exactly one worker.
func workerShardRange(w, workers int) (lo, hi uint8) {
	return uint8(w * aggShardCount / workers), uint8((w + 1) * aggShardCount / workers)
}

// runWorkers runs fn(0..workers-1) concurrently and waits for all of them.
func runWorkers(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
