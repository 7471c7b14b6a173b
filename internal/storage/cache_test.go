package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudviews/internal/data"
)

func TestCacheHitServesSameDecode(t *testing.T) {
	s := NewStore()
	v := write(t, s, "hot", 32, 100)
	_, first, err := s.ConsumeCtx(context.Background(), v.Path)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after cold consume: %+v", st)
	}
	if st.Bytes != v.LogicalBytes {
		t.Errorf("cache gauge %d bytes, want logical %d", st.Bytes, v.LogicalBytes)
	}
	_, second, err := s.ConsumeCtx(context.Background(), v.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy: the hot path returns the resident decode, not a fresh one.
	if &second[0][0] != &first[0][0] {
		t.Error("hot consume re-decoded instead of serving the cache")
	}
	st = s.CacheStats()
	if st.Hits != 1 {
		t.Fatalf("after hot consume: %+v", st)
	}
	if got := s.CachedPaths(); len(got) != 1 || got[0] != v.Path {
		t.Errorf("CachedPaths = %v", got)
	}
}

func TestCacheDisabledAndResize(t *testing.T) {
	s := NewStore()
	if s.cache.budget.Load() != DefaultCacheBudget {
		t.Fatalf("default budget = %d", s.cache.budget.Load())
	}
	s.SetCacheBudget(-1)
	v := write(t, s, "nc", 16, 100)
	if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache admitted an entry: %+v", st)
	}
	// Re-enabling starts empty and admits on the next consume.
	s.SetCacheBudget(DefaultCacheBudget)
	if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("re-enabled cache did not admit: %+v", st)
	}
	// Shrinking drops residents.
	s.SetCacheBudget(1)
	if st := s.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("resize kept entries: %+v", st)
	}
}

// TestCacheDisabledCountsMisses: with the cache off every read is served
// past it, so each one is a miss (CacheStats' definition), and a read of
// a missing path is neither.
func TestCacheDisabledCountsMisses(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		s := NewStore()
		s.SetCacheBudget(budget)
		v := write(t, s, "cold", 16, 100)
		for i := 0; i < 3; i++ {
			if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.ConsumeCtx(context.Background(), "/views/none"); err == nil {
			t.Fatal("consume of a missing path succeeded")
		}
		if st := s.CacheStats(); st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
			t.Errorf("budget %d: %+v, want 0 hits, 3 misses, 0 entries", budget, st)
		}
	}
}

func TestCacheEvictsLowestUtility(t *testing.T) {
	s := NewStore()
	v1 := write(t, s, "e1", 64, 100)
	write(t, s, "e2", 64, 100)
	write(t, s, "e3", 64, 100)
	// Budget: room for two of the three equal-sized decoded views, so the
	// third admit must displace the least-useful resident.
	s.SetCacheBudget(v1.LogicalBytes*2 + 1)
	paths := []string{PathFor("e1", "job-e1"), PathFor("e2", "job-e2"), PathFor("e3", "job-e3")}
	for _, p := range paths {
		if _, _, err := s.ConsumeCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Error("over-budget admits evicted nothing")
	}
	if st.Entries == 0 || st.Entries > 2 || st.Bytes > s.cache.budget.Load() {
		t.Errorf("cache over budget: %+v (budget %d)", st, s.cache.budget.Load())
	}
	// Everything still decodes correctly whether cached or evicted.
	for _, p := range paths {
		if _, parts, err := s.ConsumeCtx(context.Background(), p); err != nil || len(parts[0]) != 64 {
			t.Fatalf("consume %s after eviction pressure: %v", p, err)
		}
	}
	for _, p := range s.CachedPaths() {
		if _, err := s.Get(p); err != nil {
			t.Errorf("cached path %s not in store", p)
		}
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	s := NewStore()
	v := write(t, s, "big", 512, 100)
	// A budget smaller than the decoded entry: never admitted, nothing
	// else evicted for it.
	s.SetCacheBudget(v.LogicalBytes / 2)
	if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("oversized entry admitted: %+v", st)
	}
}

func TestDeleteDropsCacheEntry(t *testing.T) {
	s := NewStore()
	v := write(t, s, "d1", 8, 100)
	write(t, s, "d2", 8, 0) // expired
	for _, p := range []string{v.Path, PathFor("d2", "job-d2")} {
		if _, _, err := s.ConsumeCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.CacheStats(); st.Entries != 2 {
		t.Fatalf("setup: %+v", st)
	}
	// Deleting a view drops its cache entry and only that one.
	s.Delete(PathFor("d2", "job-d2"))
	if got := s.CachedPaths(); len(got) != 1 || got[0] != v.Path {
		t.Fatalf("after deleting d2, CachedPaths = %v", got)
	}
	s.Delete(v.Path)
	if st := s.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after delete: %+v", st)
	}
}

// TestConsumeCacheConcurrent hammers one store from many goroutines —
// mixed hot/cold consumes, deletes, rewrites — and checks under the race
// detector that the cache never serves wrong rows and every cached path
// stays a stored path.
func TestConsumeCacheConcurrent(t *testing.T) {
	s := NewStore()
	const views = 8
	for i := 0; i < views; i++ {
		sig := fmt.Sprintf("cc%d", i)
		parts := [][]data.Row{{{data.Int(int64(i)), data.String_(sig)}}}
		if _, err := s.WriteCtx(context.Background(), mkView(sig, 1000), parts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (g + i) % views
				sig := fmt.Sprintf("cc%d", idx)
				path := PathFor(sig, "job-"+sig)
				_, parts, err := s.ConsumeCtx(context.Background(), path)
				if err != nil {
					var nf *NotFoundError
					if !errors.As(err, &nf) {
						t.Errorf("consume: %v", err)
					}
					continue
				}
				if parts[0][0][0].I != int64(idx) || parts[0][0][1].S != sig {
					t.Errorf("consume %s returned wrong rows: %#v", path, parts[0][0])
				}
				if g == 0 && i%25 == 24 {
					// Churn: drop a view, then re-install it under a fresh
					// producer (first-writer-wins keeps this race legal).
					s.Delete(path)
					v := mkView(sig, 1000)
					v.Path = path
					freshParts := [][]data.Row{{{data.Int(int64(idx)), data.String_(sig)}}}
					if _, err := s.WriteCtx(context.Background(), v, freshParts); err != nil {
						t.Errorf("rewrite: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, p := range s.CachedPaths() {
		if _, err := s.Get(p); err != nil {
			t.Errorf("cached path %s not stored", p)
		}
	}
}
