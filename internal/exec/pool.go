package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the package-level worker pool shared by every executor in the
// process. Per-partition kernel fan-out (parallelRange, forEachPartition)
// is the only thing that draws from it — a job's vertices run on the
// job's own goroutine — and every job draws from the same token budget,
// sized to the machine, so concurrent jobs cannot multiply goroutines: a
// 256-partition table never spawns 256 goroutines per operator, and a
// batch of in-flight jobs shares one budget instead of stacking pools.
var pool = newWorkerPool(runtime.GOMAXPROCS(0))

type workerPool struct {
	tokens chan struct{}
}

func newWorkerPool(size int) *workerPool {
	if size < 1 {
		size = 1
	}
	return &workerPool{tokens: make(chan struct{}, size)}
}

// trySpawn runs fn on a pool worker if a token is free and returns true;
// otherwise it returns false and the caller should run fn inline. The
// inline fallback (rather than queueing) keeps the pool deadlock-free
// under nesting: an operator already running on a pool worker can fan its
// partitions out through the same pool without ever waiting on itself.
func (p *workerPool) trySpawn(wg *sync.WaitGroup, fn func()) bool {
	select {
	case p.tokens <- struct{}{}:
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.tokens }()
			fn()
		}()
		return true
	default:
		return false
	}
}

// size returns the pool's worker budget.
func (p *workerPool) size() int { return cap(p.tokens) }

// parallelRange runs fn(i) for every i in [0, n), fanning out through the
// shared pool. Indexes are claimed by atomic counter, so the fan-out
// occupies at most the pool's worker budget plus the calling goroutine,
// and fn runs exactly once per index. fn must only write state owned by
// its index (output slot i, disjoint slice ranges); parallelRange returns
// only after every index completes, which establishes the happens-before
// edge making those writes visible to the caller.
func parallelRange(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for helpers := 0; helpers < n-1; helpers++ {
		if !pool.trySpawn(&wg, work) {
			break
		}
	}
	work()
	wg.Wait()
}
