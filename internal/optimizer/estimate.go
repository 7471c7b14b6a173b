// Package optimizer implements the plan-search extensions of paper
// Figure 10: cost estimation, top-down view matching (query rewriting with
// materialized views), and the follow-up bottom-up view-materialization
// phase, all driven by annotations fetched from the metadata service.
package optimizer

import (
	"cloudviews/internal/catalog"
	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
)

// Estimate is a compile-time guess at a subgraph's output and cost.
type Estimate struct {
	Rows  int64
	Bytes int64
	// Cost is the cumulative estimated CPU cost of the subgraph.
	Cost float64
	// Actual reports whether the estimate is grounded in observed
	// statistics (true below a view scan) rather than heuristics.
	Actual bool
}

// Estimator produces deliberately naive compile-time estimates, standing
// in for the production optimizer whose estimates are "often way off"
// (§5.1) — fixed selectivities, independence assumptions, no UDO insight.
// When a subgraph reads a materialized view, the view's actual statistics
// are propagated instead, which is the accuracy benefit §6.3 describes.
type Estimator struct {
	Catalog *catalog.Catalog
}

// Default guesses, intentionally crude.
const (
	estFilterSelectivity  = 0.1
	estAggReduction       = 0.1
	estJoinMultiplier     = 1.0 // foreign-key assumption: |join| = |probe|
	estUDOMultiplier      = 1.0
	estDefaultTableRows   = 100000
	estBytesPerRow        = 64
	estProcessBytesPerRow = 80
)

// Estimate computes the estimate for the subgraph rooted at n. Results are
// not memoized: plans are small and estimation is called per optimization.
func (e *Estimator) Estimate(n *plan.Node) Estimate {
	children := make([]Estimate, len(n.Children))
	var childCost float64
	for i, c := range n.Children {
		children[i] = e.Estimate(c)
		childCost += children[i].Cost
	}
	var est Estimate
	switch n.Kind {
	case plan.OpExtract:
		rows := int64(estDefaultTableRows)
		var bytes int64
		if e.Catalog != nil {
			if t, err := e.Catalog.Get(n.Table); err == nil {
				// Table cardinalities are in the catalog at compile time;
				// SCOPE knows input sizes, it is selectivities it guesses.
				rows = t.NumRows()
				bytes = t.ByteSize()
			}
		}
		if bytes == 0 {
			bytes = rows * estBytesPerRow
		}
		est = Estimate{Rows: rows, Bytes: bytes}
	case plan.OpViewScan:
		// Actual statistics, loaded from the materialized view (§6.3).
		est = Estimate{Rows: n.ViewRows, Bytes: n.ViewBytes, Actual: true}
	case plan.OpFilter:
		est = scaleEstimate(children[0], estFilterSelectivity)
	case plan.OpProject:
		est = Estimate{Rows: children[0].Rows, Bytes: children[0].Rows * estBytesPerRow, Actual: children[0].Actual}
	case plan.OpHashJoin:
		rows := int64(float64(children[0].Rows) * estJoinMultiplier)
		est = Estimate{Rows: rows, Bytes: rows * 2 * estBytesPerRow}
	case plan.OpHashGbAgg:
		est = scaleEstimate(children[0], estAggReduction)
	case plan.OpSort, plan.OpExchange, plan.OpOutput, plan.OpMaterialize:
		est = children[0]
	case plan.OpTop:
		rows := children[0].Rows
		if rows > n.N {
			rows = n.N
		}
		est = Estimate{Rows: rows, Bytes: rows * estBytesPerRow, Actual: children[0].Actual}
	case plan.OpUnionAll:
		for _, c := range children {
			est.Rows += c.Rows
			est.Bytes += c.Bytes
		}
	case plan.OpProcess, plan.OpReduce:
		rows := int64(float64(children[0].Rows) * estUDOMultiplier)
		est = Estimate{Rows: rows, Bytes: rows * estProcessBytesPerRow}
	default:
		est = Estimate{}
	}

	inRows := int64(0)
	inBytes := int64(0)
	if len(children) > 0 {
		inRows = children[0].Rows
		inBytes = children[0].Bytes
	} else if n.Kind == plan.OpExtract {
		// Leaf scans are costed on what they read, mirroring the
		// executor's accounting.
		inRows = est.Rows
		inBytes = est.Bytes
	}
	est.Cost = childCost + exec.OperatorCost(n.Kind, inRows, est.Rows, inBytes)
	if n.Kind == plan.OpHashJoin {
		est.Cost += float64(children[1].Rows) * 1.2 // build side
	}
	return est
}

func scaleEstimate(in Estimate, sel float64) Estimate {
	rows := int64(float64(in.Rows) * sel)
	if rows < 1 {
		rows = 1
	}
	return Estimate{Rows: rows, Bytes: rows * estBytesPerRow, Actual: false}
}

// ViewReadCost estimates the cost of scanning a materialized view with the
// given actual statistics, including the startup of the replacement scan.
func ViewReadCost(rows, bytes int64) float64 {
	return exec.OperatorCost(plan.OpViewScan, 0, rows, bytes)
}
