package core

import (
	"sort"
	"sync"
)

// maintenance.go carries the operational features around the core runtime:
// workload-change detection (§6.2/§7.3) and admin storage reclamation
// (§5.4).

// changeTracker counts views built per recurring instance. The paper
// detects workload changes "by monitoring changes in the number of
// materialized views created over time": when a template changes, its
// normalized signature stops matching the loaded annotations, builds stop,
// and the drop signals that the analyzer should rerun.
type changeTracker struct {
	mu            sync.Mutex
	currentBuilds int
	lastBuilds    int
	haveBaseline  bool
}

func (c *changeTracker) recordBuild() {
	c.mu.Lock()
	c.currentBuilds++
	c.mu.Unlock()
}

// roll closes the current instance's counter.
func (c *changeTracker) roll() {
	c.mu.Lock()
	c.lastBuilds = c.currentBuilds
	c.currentBuilds = 0
	c.haveBaseline = true
	c.mu.Unlock()
}

// AnalysisStale reports whether the loaded analysis looks outdated: the
// metadata service advertises annotations, but the last completed
// recurring instance materialized fewer than half the advertised views.
// A true result is the signal to rerun the CloudViews analyzer (§6.2:
// "this also indicates that it is time to rerun the workload analysis").
func (s *Service) AnalysisStale() bool {
	annotations, _, _, _, _ := s.Meta.Stats()
	if annotations == 0 {
		return false
	}
	s.changes.mu.Lock()
	defer s.changes.mu.Unlock()
	if !s.changes.haveBaseline {
		return false
	}
	return s.changes.lastBuilds*2 < annotations
}

// ViewsBuiltLastInstance reports how many views the last completed
// instance materialized (admin dashboards).
func (s *Service) ViewsBuiltLastInstance() int {
	s.changes.mu.Lock()
	defer s.changes.mu.Unlock()
	return s.changes.lastBuilds
}

// ReclaimStorage frees at least wantBytes of view storage by evicting the
// lowest-utility views first — the §5.4 admin operation ("running the
// same view selection routines ... replacing the max objective function
// with a min"). Utility comes from the loaded annotations; views without
// an annotation (orphans from a previous analysis) rank lowest of all.
// Each victim is retired in the §5.4 order (see retire). It returns the
// purged paths.
func (s *Service) ReclaimStorage(wantBytes int64) []string {
	type scored struct {
		preciseSig string
		path       string
		bytes      int64
		utility    float64
		orphan     bool
	}
	var all []scored
	for _, v := range s.Meta.Views() {
		// Reclamation frees at-rest bytes, so account the encoded payload
		// size; fall back to the logical size for records journaled before
		// encoding existed.
		bytes := v.EncodedBytes
		if bytes == 0 {
			bytes = v.Bytes
		}
		sc := scored{preciseSig: v.PreciseSig, path: v.Path, bytes: bytes}
		if ann, ok := s.Meta.Annotation(v.NormSig); ok {
			sc.utility = ann.Utility
		} else {
			sc.orphan = true
		}
		all = append(all, sc)
	}
	// Views in storage that the metadata service no longer knows about
	// are pure waste: reclaim them first.
	known := map[string]bool{}
	for _, sc := range all {
		known[sc.path] = true
	}
	for _, v := range s.Store.Views() {
		if !known[v.Path] {
			all = append(all, scored{preciseSig: v.PreciseSig, path: v.Path, bytes: v.Bytes, orphan: true})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].orphan != all[j].orphan {
			return all[i].orphan
		}
		if all[i].utility != all[j].utility {
			return all[i].utility < all[j].utility
		}
		return all[i].path < all[j].path
	})
	var purged []string
	var freed int64
	for _, sc := range all {
		if freed >= wantBytes {
			break
		}
		s.retire(sc.preciseSig, sc.path)
		purged = append(purged, sc.path)
		freed += sc.bytes
	}
	return purged
}
