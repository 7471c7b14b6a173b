package optimizer

import (
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// BuildIntent records a view materialization the optimizer injected into
// the plan; the job manager reports completion against it.
type BuildIntent struct {
	PreciseSig string
	NormSig    string
	Path       string
	Props      plan.PhysicalProps
	// ExpiryDelta is copied from the annotation for the runtime to stamp
	// an absolute expiry at publication time.
	ExpiryDelta int64
}

// Decision summarizes what the optimizer did to a job's plan.
type Decision struct {
	// ViewsUsed lists materialized views the final plan reads.
	ViewsUsed []metadata.ViewInfo
	// ViewsBuilt lists materializations injected into the plan.
	ViewsBuilt []BuildIntent
	// ViewsRejected lists precise signatures of available views the
	// cost-based check declined (§4 goal 4, §6.3).
	ViewsRejected []string
	// EstimatedCost is the estimated cost of the final plan.
	EstimatedCost float64
	// MetaUnavailable records that the metadata lookup failed and the job
	// gracefully degraded to no-reuse (the frontend skipped optimization
	// rather than aborting: reuse is an optimization, never a dependency).
	MetaUnavailable bool
	// QuarantinedViews lists paths of views that failed integrity or
	// existence checks mid-execution and were quarantined, forcing the job
	// to re-optimize without them.
	QuarantinedViews []string
	// BreakerOpen names the dependency ("metadata", "viewstore") whose
	// circuit breaker was open when this plan was chosen, forcing the job
	// to skip reuse without contacting the dependency at all. Empty when
	// no breaker interfered.
	BreakerOpen string
}

// Optimizer is the CloudViews-extended plan search. It consults the
// metadata service through the API interface, so it works identically
// against the in-process service and the HTTP client.
type Optimizer struct {
	Meta metadata.API
	Est  *Estimator
	// MaxMaterializePerJob bounds how many views one job may build
	// (paper §6.2: "limit the number of views that could be materialized
	// in a job", adjustable per submission). Zero means no builds.
	MaxMaterializePerJob int
}

// Optimize applies the two CloudViews tasks of Figure 10 to the plan:
//
//  1. Plan-search view matching (top-down, largest subgraphs first): any
//     subgraph whose normalized signature has an annotation and whose
//     precise signature has an available view is replaced by a scan of
//     that view — if the cost-based check approves.
//  2. Follow-up optimization (bottom-up, smallest subgraphs first): for
//     annotated subgraphs not yet materialized, propose materialization
//     to the metadata service; each successful proposal wraps the
//     subgraph in a Materialize operator enforcing the mined physical
//     design, up to the per-job limit.
//
// The input plan is never modified. Both rewrite tasks are copy-on-write:
// the returned plan shares every untouched subtree with the input, and a
// job with no reuse opportunities gets the input plan back without copying
// a single node. now is the simulated time used for lock acquisition.
func (o *Optimizer) Optimize(root *plan.Node, jobID string, anns []metadata.Annotation, now int64) (*plan.Node, *Decision) {
	dec := &Decision{}
	annByNorm := make(map[string]metadata.Annotation, len(anns))
	for _, a := range anns {
		annByNorm[a.NormSig] = a
	}
	if len(annByNorm) == 0 {
		dec.EstimatedCost = o.Est.Estimate(root).Cost
		return root, dec
	}

	// One signature computer serves all passes: copy-on-write rewrites
	// alias copied nodes to their originals (a view scan hashes to the
	// computation it replaced, so copies denote identical signatures),
	// which makes every later pass hash each subgraph at most once.
	comp := signature.NewComputer()
	missed := map[string]bool{}
	rewritten := o.matchViews(root, comp, annByNorm, dec, missed)
	final := o.injectMaterializations(rewritten, jobID, annByNorm, dec, now, comp, missed)
	if len(dec.ViewsBuilt) > 0 && (len(missed) > 0 || len(dec.ViewsRejected) > 0) {
		// Figure 10's closing step: re-optimize the new plan. The
		// injected output operators changed the tree, so the plan search
		// runs once more over it (this is the paper's +28% optimizer-time
		// cost of creating a view; consuming one shrinks the tree and
		// costs less than a plain optimization). A scratch decision
		// absorbs re-detections; only genuinely new matches (a view a
		// concurrent job published between the passes) are kept.
		//
		// The pass is skipped when it provably cannot add a match: every
		// annotated subgraph that lacked a view is now covered by a build
		// lock this job holds (no concurrent job can publish it), and
		// nothing was cost-rejected (an injected materialization raises an
		// enclosing subgraph's recompute estimate, which can flip a
		// rejection, so rejections force the re-match).
		scratch := &Decision{}
		final = o.matchViews(final, comp, annByNorm, scratch, nil)
		dec.ViewsUsed = append(dec.ViewsUsed, scratch.ViewsUsed...)
	}
	dec.EstimatedCost = o.Est.Estimate(final).Cost
	return final, dec
}

// matchViews is the top-down matching task: it tries the current node
// before descending, so the largest materialized views win (§6.3). The
// rewrite is copy-on-write: nodes are copied only on the path from a
// replacement to the root, and the input tree is never mutated. missed,
// when non-nil, collects precise signatures of annotated subgraphs that
// had no materialized view yet — the candidates a later pass could serve.
func (o *Optimizer) matchViews(n *plan.Node, comp *signature.Computer, anns map[string]metadata.Annotation, dec *Decision, missed map[string]bool) *plan.Node {
	if n.Kind != plan.OpExtract && n.Kind != plan.OpViewScan && !n.Transparent() {
		sig := comp.Of(n)
		if _, ok := anns[sig.Normalized]; ok {
			if v, ok := o.Meta.LookupView(sig.Precise); ok {
				if scan := o.tryUseView(n, sig, v, dec); scan != nil {
					return scan
				}
			} else if missed != nil {
				missed[sig.Precise] = true
			}
		}
	}
	var cp *plan.Node
	for i, c := range n.Children {
		r := o.matchViews(c, comp, anns, dec, missed)
		if r != c && cp == nil {
			cp = n.CopyWithChildren()
			comp.Alias(n, cp)
		}
		if cp != nil {
			cp.Children[i] = r
		}
	}
	if cp != nil {
		return cp
	}
	return n
}

// tryUseView performs the cost-based accept/reject: the view is used only
// if scanning it (with its *actual* statistics) is estimated cheaper than
// recomputing the subgraph. Returns the replacement node or nil.
func (o *Optimizer) tryUseView(n *plan.Node, sig signature.Signature, v metadata.ViewInfo, dec *Decision) *plan.Node {
	recompute := o.Est.Estimate(n).Cost
	readCost := ViewReadCost(v.Rows, v.Bytes)
	if readCost >= recompute {
		dec.ViewsRejected = append(dec.ViewsRejected, sig.Precise)
		return nil
	}
	scan := plan.ViewScan(v.Path, n.Schema(), sig.Precise, sig.Normalized)
	scan.ViewRows = v.Rows
	scan.ViewBytes = v.Bytes
	dec.ViewsUsed = append(dec.ViewsUsed, v)
	return scan
}

// injectMaterializations is the follow-up task: bottom-up (post-order), so
// smaller subgraphs — which typically overlap more (§6.2) — are proposed
// first, bounded by the per-job limit. Like matchViews it is copy-on-write
// with one visit per distinct node: only ancestors of an injected
// Materialize are copied. Precise signatures of candidates this job
// acquired a build lock for are removed from missed — no concurrent job
// can publish those views while the lock is held.
func (o *Optimizer) injectMaterializations(root *plan.Node, jobID string, anns map[string]metadata.Annotation, dec *Decision, now int64, comp *signature.Computer, missed map[string]bool) *plan.Node {
	builds := 0
	memo := map[*plan.Node]*plan.Node{}
	var rec func(*plan.Node) *plan.Node
	rec = func(n *plan.Node) *plan.Node {
		if n == nil {
			return nil
		}
		if r, ok := memo[n]; ok {
			return r
		}
		cur := n
		var cp *plan.Node
		for i, ch := range n.Children {
			r := rec(ch)
			if r != ch && cp == nil {
				cp = n.CopyWithChildren()
				comp.Alias(n, cp)
				cur = cp
			}
			if cp != nil {
				cp.Children[i] = r
			}
		}
		res := cur
		switch {
		case n.Kind == plan.OpExtract || n.Kind == plan.OpViewScan ||
			n.Kind == plan.OpOutput || n.Transparent():
		default:
			sig := comp.Of(cur)
			ann, ok := anns[sig.Normalized]
			switch {
			case !ok:
			case builds >= o.MaxMaterializePerJob:
			case o.viewExists(sig.Precise):
				// Already materialized (maybe used above, maybe rejected by
				// cost); never rebuild.
			case !o.Meta.ProposeMaterialize(sig.Normalized, sig.Precise, jobID, now):
				// Another concurrent job holds the build lock.
			default:
				builds++
				delete(missed, sig.Precise)
				path := storage.PathFor(sig.Precise, jobID)
				dec.ViewsBuilt = append(dec.ViewsBuilt, BuildIntent{
					PreciseSig:  sig.Precise,
					NormSig:     sig.Normalized,
					Path:        path,
					Props:       ann.Props,
					ExpiryDelta: ann.ExpiryDelta,
				})
				res = cur.Materialize(path, sig.Precise, sig.Normalized, ann.Props)
			}
		}
		memo[n] = res
		return res
	}
	return rec(root)
}

func (o *Optimizer) viewExists(preciseSig string) bool {
	_, exists := o.Meta.LookupView(preciseSig)
	return exists
}
