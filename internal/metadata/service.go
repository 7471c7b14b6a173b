// Package metadata implements the CloudViews metadata service (paper §6.1
// and Figure 9): the lookup and coordination point between the analyzer
// and the runtime.
//
// The service stores the analyzer's annotations (normalized signatures of
// selected views with their mined physical design, expiry, and runtime),
// serves one inverted-index lookup per job, arbitrates exclusive build
// locks for build-build synchronization, and tracks which views are
// materialized and available. The production system backs this with
// AzureSQL; here the same protocol runs over an in-process store, with an
// optional net/http front end in this package for service-style deployment.
//
// Reads vastly outnumber writes — every submitted job performs a lookup,
// while writes happen once per analysis reload or materialized view — so
// the read paths (TryRelevantViews, Annotation, LookupView, Views) are served
// from an immutable copy-on-write state swapped atomically by writers.
// Readers never take the mutex; the mutex only serializes writers and the
// build-lock table, which is inherently read-modify-write.
package metadata

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
)

// Annotation is one analyzer-selected overlapping computation: the promise
// that materializing subgraphs with this normalized signature pays off.
type Annotation struct {
	NormSig string
	// Tags are the inverted-index keys extracted from job metadata of the
	// jobs this computation occurred in (normalized input names and
	// template IDs). A job's lookup returns the union of annotations
	// matching any of its tags — possibly with false positives, which the
	// optimizer filters by actual signature match (§6.1).
	Tags []string
	// Props is the elected physical design for the materialized view (§5.3).
	Props plan.PhysicalProps
	// AvgRuntime is the mined average runtime of the subgraph; it sets
	// the expiry of the exclusive build lock (§6.1).
	AvgRuntime float64
	// ExpiryDelta is the view lifetime in instance units, from input
	// lineage (§5.4).
	ExpiryDelta int64
	// Utility and StorageBytes are reported for admin dashboards.
	Utility      float64
	StorageBytes int64
	// Frequency is the observed occurrence count in the analysis window.
	Frequency int
}

// ViewInfo describes a materialized, available view.
type ViewInfo struct {
	PreciseSig string
	NormSig    string
	Path       string
	Schema     data.Schema
	Props      plan.PhysicalProps
	Rows       int64
	// Bytes is the view's logical (row-representation) size — what a
	// consumer materializes when scanning it, and what the optimizer's
	// reuse cost model prices.
	Bytes int64
	// EncodedBytes is the at-rest columnar payload size actually held by
	// storage (zero on records journaled before encoding existed).
	EncodedBytes  int64
	ProducerJobID string
	ExpiresAt     int64
}

type buildLock struct {
	jobID     string
	expiresAt int64
}

// state is one immutable generation of the read-mostly service state.
// Everything reachable from a published state is frozen: writers build
// fresh maps (sharing only whole sub-structures that did not change) and
// install the new generation with one atomic pointer swap.
type state struct {
	annotations map[string]*Annotation   // by normalized signature
	tagAnns     map[string][]*Annotation // tag -> annotations, sorted by NormSig
	views       map[string]*ViewInfo     // by precise signature
}

var emptyState = &state{
	annotations: map[string]*Annotation{},
	tagAnns:     map[string][]*Annotation{},
	views:       map[string]*ViewInfo{},
}

// FaultHook is the metadata service's fault-injection seam (see
// internal/fault): Lookup is consulted once per TryRelevantViews round trip
// and a non-nil error simulates the service being unreachable.
type FaultHook interface {
	Lookup(vc string) error
}

// ObsHook is the metadata service's observability seam (see
// internal/obs): LookupDone fires once per TryRelevantViews round trip
// with how many annotations were served (0 on failure). A nil hook costs
// nothing; hooks must not call back into the service.
type ObsHook interface {
	LookupDone(vc string, annotations int, err error)
}

// Service is the concurrent metadata store. The zero value is not usable;
// call NewService.
type Service struct {
	// Faults, if set, can fail lookups served through TryRelevantViews.
	// Production runs leave it nil.
	Faults FaultHook

	// Obs, if set, observes lookup round trips (see ObsHook).
	Obs ObsHook

	// mu serializes writers and guards the build-lock table. Read paths
	// never acquire it.
	mu    sync.Mutex
	cur   atomic.Pointer[state]
	locks map[string]buildLock // by precise signature

	// Counters for the overheads evaluation (§7.3).
	lookups   atomic.Int64
	proposals atomic.Int64
}

// NewService returns an empty metadata service.
func NewService() *Service {
	s := &Service{locks: map[string]buildLock{}}
	s.cur.Store(emptyState)
	return s
}

// clone returns a shallow copy of st whose maps can be swapped out
// individually by the caller before publishing.
func (st *state) clone() *state {
	cp := *st
	return &cp
}

func copyViews(m map[string]*ViewInfo) map[string]*ViewInfo {
	out := make(map[string]*ViewInfo, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// buildTagIndex derives the inverted tag index from an annotation map,
// pre-sorting each tag's list so TryRelevantViews can merge without sorting
// or deduplicating per call.
func buildTagIndex(annotations map[string]*Annotation) map[string][]*Annotation {
	tagAnns := make(map[string][]*Annotation)
	for _, a := range annotations {
		for _, tag := range a.Tags {
			tagAnns[tag] = append(tagAnns[tag], a)
		}
	}
	for _, list := range tagAnns {
		sort.Slice(list, func(i, j int) bool { return list[i].NormSig < list[j].NormSig })
	}
	return tagAnns
}

// LoadAnalysis installs the analyzer's output, replacing all previous
// annotations and rebuilding the inverted tag index. Materialized views
// and in-flight locks are preserved: reloading analysis must not orphan
// views that jobs are already using.
func (s *Service) LoadAnalysis(anns []Annotation) {
	annotations := make(map[string]*Annotation, len(anns))
	for i := range anns {
		a := anns[i]
		annotations[a.NormSig] = &a
	}
	tagAnns := buildTagIndex(annotations)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load().clone()
	st.annotations = annotations
	st.tagAnns = tagAnns
	s.cur.Store(st)
}

// SaveAll upserts a batch of annotations — one tag-index rebuild and one
// state swap for the whole batch, not one per annotation. Unlike
// LoadAnalysis it merges: existing annotations whose signatures are not in
// the batch survive. This is the install path for scoped analyzer runs
// (per-cluster or per-VC configs), whose output covers only the scoped
// slice of the workload and must not clobber the annotations other scopes
// are serving.
func (s *Service) SaveAll(anns []Annotation) {
	if len(anns) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load().clone()
	annotations := make(map[string]*Annotation, len(st.annotations)+len(anns))
	for k, v := range st.annotations {
		annotations[k] = v
	}
	for i := range anns {
		a := anns[i]
		annotations[a.NormSig] = &a
	}
	st.annotations = annotations
	st.tagAnns = buildTagIndex(annotations)
	s.cur.Store(st)
}

// TryRelevantViews is the per-job lookup (Figure 9, steps 1–2): it returns
// every annotation whose tags intersect the job's tags, in one round trip,
// ordered by normalized signature. The result may contain annotations
// whose signatures do not occur in the job (false positives); the
// optimizer matches actual signatures. The returned slice is freshly
// built per call: the caller owns it.
//
// The lookup sits behind the fault seam: it fails when the (simulated)
// metadata service is unreachable instead of silently returning nothing.
// The job frontend treats that failure as a degradation signal — skip
// reuse for this job, count it, and run the original plan — never as a
// job abort.
func (s *Service) TryRelevantViews(vc string, jobTags []string) ([]Annotation, error) {
	if s.Faults != nil {
		if err := s.Faults.Lookup(vc); err != nil {
			err = fmt.Errorf("metadata: relevant-views lookup for %s: %w", vc, err)
			if s.Obs != nil {
				s.Obs.LookupDone(vc, 0, err)
			}
			return nil, err
		}
	}
	s.lookups.Add(1)
	st := s.cur.Load()

	// Collect the pre-sorted per-tag lists; the common cases (zero or one
	// non-empty tag) need no merge state at all.
	var listsBuf [8][]*Annotation
	lists := listsBuf[:0]
	total := 0
	for _, tag := range jobTags {
		if l := st.tagAnns[tag]; len(l) > 0 {
			lists = append(lists, l)
			total += len(l)
		}
	}
	var out []Annotation
	if total > 0 {
		out = make([]Annotation, 0, total)
	}
	if len(lists) == 1 {
		for _, a := range lists[0] {
			out = append(out, *a)
		}
	} else if len(lists) > 1 {
		// K-way merge of the NormSig-sorted lists. Annotations are unique
		// per NormSig, so equal heads are the same annotation reached via
		// different tags: emitting the minimum once and advancing every
		// list holding it yields the sorted, deduplicated union.
		var idxBuf [8]int
		idx := idxBuf[:len(lists)]
		if len(lists) > len(idxBuf) {
			idx = make([]int, len(lists))
		}
		for {
			var min *Annotation
			for i, l := range lists {
				if idx[i] < len(l) && (min == nil || l[idx[i]].NormSig < min.NormSig) {
					min = l[idx[i]]
				}
			}
			if min == nil {
				break
			}
			out = append(out, *min)
			for i, l := range lists {
				if idx[i] < len(l) && l[idx[i]].NormSig == min.NormSig {
					idx[i]++
				}
			}
		}
	}
	if s.Obs != nil {
		s.Obs.LookupDone(vc, len(out), nil)
	}
	return out, nil
}

// Annotation returns the annotation for a normalized signature, if any.
func (s *Service) Annotation(normSig string) (Annotation, bool) {
	a, ok := s.cur.Load().annotations[normSig]
	if !ok {
		return Annotation{}, false
	}
	return *a, true
}

// ProposeMaterialize is the exclusive-lock acquisition (Figure 9, steps
// 3–4). It succeeds iff no view exists for the precise signature and no
// unexpired lock is held by another job. The lock expires at
// now + the annotation's mined average runtime, so a crashed builder
// cannot block materialization forever (fault tolerance, §6.1).
func (s *Service) ProposeMaterialize(normSig, preciseSig, jobID string, now int64) bool {
	s.proposals.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load()
	if _, exists := st.views[preciseSig]; exists {
		return false
	}
	if l, held := s.locks[preciseSig]; held && l.expiresAt > now && l.jobID != jobID {
		return false
	}
	ttl := int64(60)
	if a, ok := st.annotations[normSig]; ok && a.AvgRuntime > 0 {
		ttl = int64(a.AvgRuntime) + 1
	}
	s.locks[preciseSig] = buildLock{jobID: jobID, expiresAt: now + ttl}
	return true
}

// ReportMaterialized publishes a built view and releases its lock
// (Figure 9, steps 5–6). Thanks to early materialization (§6.4) the job
// manager calls this the moment the view's files are sealed, which may be
// long before the producing job finishes.
func (s *Service) ReportMaterialized(v ViewInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.locks, v.PreciseSig)
	st := s.cur.Load().clone()
	views := copyViews(st.views)
	vv := v
	views[v.PreciseSig] = &vv
	st.views = views
	s.cur.Store(st)
}

// installViews publishes a batch of views with one map copy and one state
// swap — the bulk path behind Restore, which previously paid a full
// copy-on-write clone per view (quadratic in catalog size).
func (s *Service) installViews(vs []ViewInfo) {
	if len(vs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load().clone()
	views := copyViews(st.views)
	for i := range vs {
		v := vs[i]
		delete(s.locks, v.PreciseSig)
		views[v.PreciseSig] = &v
	}
	st.views = views
	s.cur.Store(st)
}

// AbortMaterialize releases a lock held by jobID without publishing a
// view (builder failed before sealing the files).
func (s *Service) AbortMaterialize(preciseSig, jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.locks[preciseSig]; ok && l.jobID == jobID {
		delete(s.locks, preciseSig)
	}
}

// LookupView returns the available view for a precise signature.
func (s *Service) LookupView(preciseSig string) (ViewInfo, bool) {
	v, ok := s.cur.Load().views[preciseSig]
	if !ok {
		return ViewInfo{}, false
	}
	return *v, true
}

// Views returns all available views, ordered by path.
func (s *Service) Views() []ViewInfo {
	st := s.cur.Load()
	out := make([]ViewInfo, 0, len(st.views))
	for _, v := range st.views {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// PurgeExpired removes view registrations whose expiry has passed and
// returns their paths. Per §5.4 the metadata service is cleaned *before*
// the physical files are deleted, so callers purge here first and then
// delete from storage.
func (s *Service) PurgeExpired(now int64) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load()
	var paths []string
	for _, v := range st.views {
		if v.ExpiresAt <= now {
			paths = append(paths, v.Path)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	cp := st.clone()
	views := make(map[string]*ViewInfo, len(st.views))
	for sig, v := range st.views {
		if v.ExpiresAt > now {
			views[sig] = v
		}
	}
	cp.views = views
	s.cur.Store(cp)
	sort.Strings(paths)
	return paths
}

// Unregister removes a specific view registration (admin reclamation).
func (s *Service) Unregister(preciseSig string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cur.Load()
	if _, ok := st.views[preciseSig]; !ok {
		return
	}
	cp := st.clone()
	views := copyViews(st.views)
	delete(views, preciseSig)
	cp.views = views
	s.cur.Store(cp)
}

// Stats reports service counters: annotation count, available views,
// held locks, lookups served, and proposals handled.
func (s *Service) Stats() (annotations, views, locks int, lookups, proposals int64) {
	st := s.cur.Load()
	s.mu.Lock()
	locks = len(s.locks)
	s.mu.Unlock()
	return len(st.annotations), len(st.views), locks, s.lookups.Load(), s.proposals.Load()
}
