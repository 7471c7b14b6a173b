package bench

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/metadata"
	"cloudviews/internal/signature"
	"cloudviews/internal/workgen"
)

// The §6.2 operator tools, run on the §7 protocol: after one reuse-on
// instance an operator traces every view to its producer and selection
// rationale, replays the reuse jobs from their preserved annotations,
// reclaims storage lowest utility first, and reads from Snapshot whether
// the analysis has gone stale.

// OperatorResult is what each operator tool reported.
type OperatorResult struct {
	// Views is the provenance of each view instance 1 built, in build order.
	Views []core.ViewProvenance
	// Replays checks every instance-1 job that read a view.
	Replays []ReplayCheck
	// Resident is the encoded view bytes after instance 1; Victims are the
	// paths ReclaimStorage(Resident/2) purged, in purge order.
	Resident int64
	Victims  []string
	// The snapshot's staleness fields after instance 1, and after an
	// instance in which no annotated template runs.
	StaleAfter1, StaleAfter2 bool
	BuiltIn1, BuiltIn2       int
}

// ReplayCheck compares a replayed job with its original run.
type ReplayCheck struct {
	JobID                      string
	Views                      int
	SameOutputs, SameViewsUsed bool
}

// RunOperator records a 60-template history, mines at most four views,
// runs instance 1 with reuse on and then applies each operator tool.
func RunOperator() (*OperatorResult, error) {
	p := workgen.DefaultProfile("operator", 11)
	p.Templates = 60
	p.DuplicateJobRate = 0
	h, err := recordHistory(p)
	if err != nil {
		return nil, err
	}
	an, err := analyze(h.repo, analyzer.Config{MinFrequency: 2, MaxPerJob: 1, TopK: 4})
	if err != nil {
		return nil, err
	}
	svc := reuseService(h.cat, core.Config{MaxViewsPerJob: 1}, an.Annotations)
	rs, err := runAll(svc, h.jobs)
	if err != nil {
		return nil, err
	}
	// Trace and replay before the instance rolls: rolling expires the views.
	r := &OperatorResult{}
	for _, jr := range rs {
		for _, b := range jr.Decision.ViewsBuilt {
			v, err := svc.ViewProvenance(b.Path)
			if err != nil {
				return nil, err
			}
			r.Views = append(r.Views, v)
		}
		if len(jr.Decision.ViewsUsed) == 0 {
			continue
		}
		re, err := svc.Replay(jr)
		if err != nil {
			return nil, err
		}
		r.Replays = append(r.Replays, ReplayCheck{
			JobID:       jr.Spec.Meta.JobID,
			Views:       len(jr.Decision.ViewsUsed),
			SameOutputs: maps.EqualFunc(jr.Result.Outputs, re.Result.Outputs, data.RowsEqual),
			SameViewsUsed: slices.EqualFunc(jr.Decision.ViewsUsed, re.Decision.ViewsUsed,
				func(a, b metadata.ViewInfo) bool { return a.Path == b.Path }),
		})
	}
	r.Resident = svc.Snapshot().Storage.ResidentEncodedBytes
	r.Victims = svc.ReclaimStorage(r.Resident / 2)
	svc.BeginInstance(2)
	st := svc.Snapshot()
	r.StaleAfter1, r.BuiltIn1 = st.AnalysisStale, st.ViewsBuiltLastInstance

	// Instance 2 runs as if every annotated template had changed: only the
	// jobs that contain no annotated computation still run, so no view is
	// built and the snapshot should call the analysis stale.
	h.wl.DeliverInstance(2)
	comp := signature.NewComputer()
	var rest []core.JobSpec
	for _, j := range specsOf(h.wl.JobsForInstance(2)) {
		if !slices.ContainsFunc(an.Annotations, func(a metadata.Annotation) bool {
			return planContainsNorm(comp, j.Root, a.NormSig)
		}) {
			rest = append(rest, j)
		}
	}
	if _, err := runAll(svc, rest); err != nil {
		return nil, err
	}
	svc.BeginInstance(3)
	st = svc.Snapshot()
	r.StaleAfter2, r.BuiltIn2 = st.AnalysisStale, st.ViewsBuiltLastInstance
	return r, nil
}

// Write prints one line per operation.
func (r *OperatorResult) Write(w io.Writer) {
	utility := map[string]float64{}
	for _, v := range r.Views {
		utility[v.Path] = v.Utility
		fmt.Fprintf(w, "provenance %s: producer=%s rows=%d bytes=%d frequency=%d utility=%s annotated=%t\n",
			v.Path, v.ProducerJobID, v.Rows, v.Bytes, v.Frequency, g4(v.Utility), v.Annotated)
	}
	for _, c := range r.Replays {
		fmt.Fprintf(w, "replay %s: views=%d same_outputs=%t same_views_used=%t\n",
			c.JobID, c.Views, c.SameOutputs, c.SameViewsUsed)
	}
	fmt.Fprintf(w, "reclaim %d of %d resident bytes: %d victims\n", r.Resident/2, r.Resident, len(r.Victims))
	for _, path := range r.Victims {
		fmt.Fprintf(w, "  victim %s utility=%s\n", path, g4(utility[path]))
	}
	fmt.Fprintf(w, "snapshot after instance 1: analysis_stale=%t views_built_last_instance=%d\n", r.StaleAfter1, r.BuiltIn1)
	fmt.Fprintf(w, "snapshot after instance 2: analysis_stale=%t views_built_last_instance=%d\n", r.StaleAfter2, r.BuiltIn2)
}

func g4(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
