package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Span is one node of a job's trace tree: a named interval on the
// simulated logical clock with string attributes and child spans. Start
// and End are logical ticks (float64 because simulated latency is —
// integer ticks render without a decimal point).
//
// A span tree is built single-writer (the job's submission goroutine owns
// it; concurrently produced vertex events are buffered by the owner and
// attached after the executor joins), so Span itself carries no locks.
type Span struct {
	Name     string
	Start    float64
	End      float64
	Attrs    []Attr
	Children []*Span
}

// Set appends (or replaces) an attribute on the span. A nil receiver is a
// no-op, so callers holding a span from a tracing-disabled path need no
// guard.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Child appends a new child span and returns it. A nil receiver returns
// nil without appending, so a whole disabled span tree collapses to no-ops.
func (s *Span) Child(name string, start, end float64, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: start, End: end, Attrs: attrs}
	s.Children = append(s.Children, c)
	return c
}

// Trace is one job's span tree.
type Trace struct {
	JobID string
	Root  *Span
}

// clone deep-copies the span so normalization never mutates a stored
// trace (concurrent exporters would race on the in-place sort).
func (s *Span) clone() *Span {
	c := &Span{Name: s.Name, Start: s.Start, End: s.End}
	if len(s.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), s.Attrs...)
	}
	if len(s.Children) > 0 {
		c.Children = make([]*Span, len(s.Children))
		for i, ch := range s.Children {
			c.Children[i] = ch.clone()
		}
	}
	return c
}

// attrKey renders the attribute list as one comparison key. Attrs are
// already sorted by the time it is used.
func attrKey(attrs []Attr) string {
	var b []byte
	for _, a := range attrs {
		b = append(b, a.Key...)
		b = append(b, '=')
		b = append(b, a.Value...)
		b = append(b, ';')
	}
	return string(b)
}

// normalize sorts the span's attributes by key and its children by
// (start, name, attributes), recursively, so the export orders spans by
// simulated time rather than by the order the pipeline added them. The
// sort key is built only from deterministic simulated quantities, so the
// normalized tree — and therefore the JSON export — is identical in every
// run of the same job.
func (s *Span) normalize() {
	sort.SliceStable(s.Attrs, func(i, j int) bool { return s.Attrs[i].Key < s.Attrs[j].Key })
	for _, c := range s.Children {
		c.normalize()
	}
	sort.SliceStable(s.Children, func(i, j int) bool {
		a, b := s.Children[i], s.Children[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return attrKey(a.Attrs) < attrKey(b.Attrs)
	})
}

// JSON renders the trace as stable, order-normalized JSON bytes: the tree
// is deep-copied, normalized, and marshaled by hand with shortest-round-
// trip float formatting, so equal traces produce equal bytes — the
// property the trace determinism tests compare directly.
func (t *Trace) JSON() []byte {
	root := t.Root
	if root != nil {
		root = root.clone()
		root.normalize()
	}
	b := make([]byte, 0, 1024)
	b = append(b, `{"job":`...)
	b = strconv.AppendQuote(b, t.JobID)
	b = append(b, `,"root":`...)
	b = appendSpan(b, root)
	b = append(b, '}')
	return b
}

func appendSpan(b []byte, s *Span) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"start":`...)
	b = appendTick(b, s.Start)
	b = append(b, `,"end":`...)
	b = appendTick(b, s.End)
	if len(s.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range s.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			b = strconv.AppendQuote(b, a.Value)
		}
		b = append(b, '}')
	}
	if len(s.Children) > 0 {
		b = append(b, `,"children":[`...)
		for i, c := range s.Children {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSpan(b, c)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendTick formats a logical tick: integer ticks render without a
// decimal point, fractional ones with Go's shortest round-trip form.
func appendTick(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// DefaultTraceCapacity is how many finished job traces a TraceStore
// retains when the owner does not size it explicitly.
const DefaultTraceCapacity = 256

// TraceStore is a bounded ring of finished job traces keyed by job ID:
// putting the capacity+1st trace evicts the oldest. Re-putting a job ID
// replaces its trace in place (a replayed job supersedes the old run).
// Safe for concurrent use.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	order []string // insertion order, oldest first
	byJob map[string]*Trace
}

// NewTraceStore returns a store retaining up to capacity traces
// (capacity <= 0 selects DefaultTraceCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{cap: capacity, byJob: map[string]*Trace{}}
}

// Put stores a finished trace, evicting the oldest when full. The store
// takes ownership: callers must not mutate the trace after Put.
func (ts *TraceStore) Put(t *Trace) {
	if t == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.byJob[t.JobID]; ok {
		ts.byJob[t.JobID] = t
		return
	}
	for len(ts.order) >= ts.cap {
		evict := ts.order[0]
		ts.order = ts.order[:copy(ts.order, ts.order[1:])]
		delete(ts.byJob, evict)
	}
	ts.order = append(ts.order, t.JobID)
	ts.byJob[t.JobID] = t
}

// Get returns the stored trace for jobID, if present.
func (ts *TraceStore) Get(jobID string) (*Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.byJob[jobID]
	return t, ok
}

// Len reports how many traces are resident.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byJob)
}
