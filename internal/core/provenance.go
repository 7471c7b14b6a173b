package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// provenance.go implements the debuggability requirement of §4 (goal 6):
// operators and customers can trace which views a job created or used,
// which job produced any view, and why the view was selected in the first
// place.

// ViewProvenance explains one materialized view.
type ViewProvenance struct {
	Path          string
	PreciseSig    string
	NormSig       string
	ProducerJobID string
	ExpiresAt     int64
	Rows          int64
	Bytes         int64
	// Selection rationale from the analyzer's annotation (why this
	// computation was picked): observed frequency and net utility.
	Frequency int
	Utility   float64
	// Annotated reports whether the current analysis still backs the
	// view; false means it is an orphan of an earlier analysis.
	Annotated bool
}

// ViewProvenance traces a materialized view by its physical path or
// precise signature (both are embedded in the path, per §6.2), or by a
// fragment of its path. An empty key matches no view.
func (s *Service) ViewProvenance(pathOrSig string) (ViewProvenance, error) {
	if pathOrSig == "" {
		return ViewProvenance{}, errors.New("core: empty view path or signature")
	}
	for _, v := range s.Meta.Views() {
		if v.Path == pathOrSig || v.PreciseSig == pathOrSig ||
			strings.Contains(v.Path, pathOrSig) {
			p := ViewProvenance{
				Path:          v.Path,
				PreciseSig:    v.PreciseSig,
				NormSig:       v.NormSig,
				ProducerJobID: v.ProducerJobID,
				ExpiresAt:     v.ExpiresAt,
				Rows:          v.Rows,
				Bytes:         v.Bytes,
			}
			if ann, ok := s.Meta.Annotation(v.NormSig); ok {
				p.Annotated = true
				p.Frequency = ann.Frequency
				p.Utility = ann.Utility
			}
			return p, nil
		}
	}
	return ViewProvenance{}, fmt.Errorf("core: no materialized view matches %q", pathOrSig)
}

// Replay re-executes a completed job exactly as it ran: the preserved
// annotations (the "job resource" of §6.2) are fed back to the optimizer,
// so the same reuse and materialization decisions reproduce — as long as
// the referenced data versions and views still exist. It returns the
// replayed result for comparison against the original.
func (s *Service) Replay(jr *JobResult) (*JobResult, error) {
	replaySpec := jr.Spec
	replaySpec.Meta.JobID = jr.Spec.Meta.JobID + "-replay"
	now := s.Clock.Now()
	out := &JobResult{Spec: replaySpec, Plan: replaySpec.Root, Decision: jr.Decision}

	if s.Config.Enabled {
		// Use the preserved annotations, not a fresh metadata lookup:
		// reproducibility must not depend on the analysis having changed.
		out.Plan, out.Decision = s.Opt.Optimize(replaySpec.Root, replaySpec.Meta.JobID, jr.AnnotationsUsed, now)
	}
	res, err := s.execute(context.Background(), out.Plan, replaySpec, out.Decision, now, 0, nil, 0)
	if err != nil {
		return nil, err
	}
	out.Result = res
	return out, nil
}
