package workload

import (
	"slices"
	"strconv"

	"cloudviews/internal/plan"
)

// fold.go is the per-signature fold of paper §5.1's feedback loop: the
// running statistics the analyzer renders as view candidates. The
// repository folds every observation as it lands (see Repository.add);
// the analyzer's windowed, scoped and estimate runs fold the window's
// observations with the same body, so the two paths cannot drift
// statement by statement.

// SigFolds folds observations into per-signature running statistics,
// keyed by normalized signature. Add folds occurrences in the order it is
// handed them, and float addition is not associative, so callers hand
// them in record order: the sums are then bit-identical to any other
// record-order fold of the same occurrences.
//
// Most signatures never recur, so a signature's first occurrence is only
// parked (its index, cost and job) and its SigFold is allocated when a
// second one arrives. The zero value is empty and ready to use.
type SigFolds struct {
	// Overlaps holds the SigFold of every signature seen at least twice.
	// It is read-only outside Add.
	Overlaps map[string]*SigFold
	parked   map[string]parkedOcc
}

// parkedOcc is a signature's only occurrence so far.
type parkedOcc struct {
	i    int
	cost float64
	job  int32
}

// Add folds occurrence i of obs, whose cost the caller has resolved
// (measured or estimated) and whose job carries index job. obs must hold
// every occurrence already handed to fs at the same indices: a parked
// occurrence is read back from it when its signature recurs.
func (fs *SigFolds) Add(obs []Observation, i int, cost float64, job int32) {
	o := &obs[i]
	if s := fs.Overlaps[o.NormSig]; s != nil {
		s.add(o, cost, job)
		return
	}
	p, ok := fs.parked[o.NormSig]
	if !ok {
		if fs.parked == nil {
			fs.parked = map[string]parkedOcc{}
		}
		fs.parked[o.NormSig] = parkedOcc{i: i, cost: cost, job: job}
		return
	}
	delete(fs.parked, o.NormSig)
	first := &obs[p.i]
	s := newSigFold(first)
	s.add(first, p.cost, p.job)
	s.add(o, cost, job)
	if fs.Overlaps == nil {
		fs.Overlaps = map[string]*SigFold{}
	}
	fs.Overlaps[o.NormSig] = s
}

// SigFold is one recurring signature's running statistics.
type SigFold struct {
	// Freq is the number of occurrences folded.
	Freq int
	// RootOp is the operator at the subgraph root.
	RootOp plan.OpKind
	// Running sums of cost, latency, rows, bytes and cost-to-job-CPU
	// ratio.
	Cost, Latency, Rows, Bytes, Ratio float64
	// Jobs holds each distinct job once, in first-occurrence order, with
	// the number of occurrences it contributed.
	Jobs []JobCount
	// Users, Inputs and Templates are the distinct values seen, each kept
	// sorted; a candidate's tags are Inputs ∪ Templates.
	Users, Inputs, Templates []string
	// Designs tallies the occurrences' output physical designs (§5.3).
	Designs DesignTally

	maxJob int32 // largest job index in Jobs
	// The previous occurrence's user and template, already in the sets: a
	// signature's occurrences mostly come from one template, so most skip
	// the set lookups.
	lastUser, lastTemplate string
}

// JobCount is one distinct job of a SigFold: its job index and how many
// of the signature's occurrences it contributed.
type JobCount struct {
	Job, Count int32
}

// promotedJobs is the Jobs capacity a SigFold starts with: a recurring
// signature gains about one job per instance, so the first instances
// append without reallocating.
const promotedJobs = 8

// sigFoldAlloc is a SigFold allocated together with the initial backing of
// its string sets and design tally. Every occurrence reads the inputs and
// the tally, so sharing the fold's allocation keeps them in adjacent cache
// lines — on the job path, after execution has evicted the fold, that is
// fewer misses — and costs one malloc instead of three.
type sigFoldAlloc struct {
	SigFold
	sets   [4]string
	design [1]designCount
}

// newSigFold allocates the fold of a signature whose first occurrence is
// first, sized for it: one user, one template and first's inputs. Each
// set's share of the backing is capped, so a set or tally that outgrows
// it reallocates alone.
func newSigFold(first *Observation) *SigFold {
	a := &sigFoldAlloc{}
	k := len(first.Inputs)
	sets := a.sets[:]
	if 2+k > len(sets) {
		sets = make([]string, 2+k)
	}
	a.RootOp = first.RootOp
	a.Jobs = make([]JobCount, 0, promotedJobs)
	a.Users, a.Templates, a.Inputs = sets[0:0:1], sets[1:1:2], sets[2:2:2+k]
	a.Designs = a.design[:0:1]
	return &a.SigFold
}

// add is the per-occurrence fold body.
func (f *SigFold) add(o *Observation, cost float64, job int32) {
	f.Freq++
	f.addJob(job)
	if len(f.Users) == 0 || o.Job.User != f.lastUser {
		f.Users = insertSorted(f.Users, o.Job.User)
		f.lastUser = o.Job.User
	}
	for _, in := range o.Inputs {
		f.Inputs = insertSorted(f.Inputs, in)
	}
	if len(f.Templates) == 0 || o.Job.TemplateID != f.lastTemplate {
		f.Templates = insertSorted(f.Templates, o.Job.TemplateID)
		f.lastTemplate = o.Job.TemplateID
	}
	f.Cost += cost
	f.Latency += o.Latency
	f.Rows += float64(o.Rows)
	f.Bytes += float64(o.Bytes)
	if o.JobCPU > 0 {
		f.Ratio += cost / o.JobCPU
	}
	f.Designs.Add(o.Props)
}

// addJob counts one occurrence of job. New jobs get ever larger indices
// and a job's observations arrive together, so an index above every one
// seen or a repeat of the last job settles in O(1); only a job recorded
// again after others (a re-recorded JobID) scans.
func (f *SigFold) addJob(job int32) {
	n := len(f.Jobs)
	switch {
	case n == 0 || job > f.maxJob:
		f.maxJob = job
	case f.Jobs[n-1].Job == job:
		f.Jobs[n-1].Count++
		return
	default:
		for k := range f.Jobs {
			if f.Jobs[k].Job == job {
				f.Jobs[k].Count++
				return
			}
		}
	}
	f.Jobs = append(f.Jobs, JobCount{Job: job, Count: 1})
}

func insertSorted(s []string, v string) []string {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// JobIndex numbers distinct jobs in first-occurrence order and keeps each
// one's longest JobLatency. The zero value is empty and ready to use.
type JobIndex struct {
	index map[string]int32
	// IDs and Latency are indexed by job index.
	IDs     []string
	Latency []float64
}

// Add indexes o's job, folds its JobLatency, and returns its index. A
// job's observations arrive together, so the newest job is checked before
// the map.
func (x *JobIndex) Add(o *Observation) int32 {
	j := int32(len(x.IDs) - 1)
	if j < 0 || x.IDs[j] != o.Job.JobID {
		var ok bool
		if j, ok = x.index[o.Job.JobID]; !ok {
			if x.index == nil {
				x.index = map[string]int32{}
			}
			j = int32(len(x.IDs))
			x.index[o.Job.JobID] = j
			x.IDs = append(x.IDs, o.Job.JobID)
			x.Latency = append(x.Latency, 0)
		}
	}
	if o.JobLatency > x.Latency[j] {
		x.Latency[j] = o.JobLatency
	}
	return j
}

// DesignTally counts occurrences per distinct output physical design.
type DesignTally []designCount

type designCount struct {
	props plan.PhysicalProps
	count int
}

// Add folds one occurrence's design, comparing it with the tallied ones
// field by field rather than rendering its key.
func (t *DesignTally) Add(p plan.PhysicalProps) {
	for i := range *t {
		if sameDesign((*t)[i].props, p) {
			(*t)[i].count++
			return
		}
	}
	*t = append(*t, designCount{props: p, count: 1})
}

// Elect picks the most popular design, ties broken by the smaller design
// key — a total order, so the winner is independent of fold order — and
// reports whether more than one design was in play. Keys are rendered
// only to break a tie. The tally must not be empty.
func (t DesignTally) Elect() (plan.PhysicalProps, bool) {
	best := &t[0]
	for i := 1; i < len(t); i++ {
		if b := &t[i]; b.count > best.count ||
			(b.count == best.count && designKey(b.props) < designKey(best.props)) {
			best = b
		}
	}
	return best.props, len(t) > 1
}

// sameDesign reports whether two designs render the same designKey.
func sameDesign(a, b plan.PhysicalProps) bool {
	return a.Part.Kind == b.Part.Kind && a.Part.Count == b.Part.Count &&
		slices.Equal(a.Part.Cols, b.Part.Cols) &&
		slices.Equal(a.Sort.Cols, b.Sort.Cols) && slices.Equal(a.Sort.Desc, b.Sort.Desc)
}

// designKey renders a physical design as a comparable string. The format
// is pinned — election ties break on it — and matches what
// fmt.Sprintf("%v|%v|%d|%v|%v", ...) produced before this append-based
// version removed the fmt overhead from the fold path
// (TestDesignKeyReference holds the two together).
func designKey(p plan.PhysicalProps) string {
	var buf [64]byte
	b := append(buf[:0], p.Part.Kind.String()...)
	b = append(b, '|')
	b = appendIntSlice(b, p.Part.Cols)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.Part.Count), 10)
	b = append(b, '|')
	b = appendIntSlice(b, p.Sort.Cols)
	b = append(b, '|')
	b = appendBoolSlice(b, p.Sort.Desc)
	return string(b)
}

func appendIntSlice(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func appendBoolSlice(dst []byte, xs []bool) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendBool(dst, x)
	}
	return append(dst, ']')
}
