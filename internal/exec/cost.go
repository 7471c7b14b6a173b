package exec

import (
	"math"

	"cloudviews/internal/plan"
)

// The cost model assigns each operator a simulated CPU cost in abstract
// "cost-seconds" as a function of its input size. Latency divides cost by
// the degree of parallelism; total CPU (the paper's PN-hours) sums costs.
// The absolute scale is arbitrary; what the benchmarks depend on is the
// *relative* ordering the paper relies on: shuffles and sorts are the most
// expensive operators, scans and scalar maps are cheap, user-defined
// operators are expensive, and reading a materialized view costs less than
// recomputing the subgraph it replaces (but is not free — large views can
// make reuse a loss, which is why the optimizer stays cost-based).
const (
	costPerRowExtract   = 1.0
	costPerRowFilter    = 0.2
	costPerRowProject   = 0.35
	costPerRowJoinBuild = 1.2
	costPerRowJoinProbe = 0.8
	costPerRowAgg       = 1.0
	costPerRowSortBase  = 0.4 // multiplied by log2(rows)
	costPerRowExchange  = 1.6 // serialize + network + deserialize
	costPerRowUnion     = 0.05
	costPerRowTop       = 0.05
	costPerRowUDO       = 3.0 // user code dominates
	costPerRowViewRead  = 0.6
	costPerRowViewWrite = 1.0
	costPerByte         = 0.0008
	costStartup         = 2.0 // per-operator fixed overhead (scheduling, setup)
)

// OperatorCost returns the simulated exclusive CPU cost of running an
// operator over rowsIn input rows (rowsOut for write-side accounting).
func OperatorCost(kind plan.OpKind, rowsIn, rowsOut, bytesIn int64) float64 {
	rows := float64(rowsIn)
	c := costStartup + float64(bytesIn)*costPerByte
	switch kind {
	case plan.OpExtract:
		c += rows * costPerRowExtract
	case plan.OpFilter:
		c += rows * costPerRowFilter
	case plan.OpProject:
		c += rows * costPerRowProject
	case plan.OpHashJoin:
		// rowsIn carries probe side; build side is added by the caller.
		c += rows * costPerRowJoinProbe
	case plan.OpHashGbAgg:
		c += rows * costPerRowAgg
	case plan.OpSort:
		if rows > 1 {
			c += rows * costPerRowSortBase * math.Log2(rows)
		}
	case plan.OpExchange:
		c += rows * costPerRowExchange
	case plan.OpUnionAll:
		c += rows * costPerRowUnion
	case plan.OpTop:
		c += rows * costPerRowTop
	case plan.OpProcess, plan.OpReduce:
		c += rows * costPerRowUDO
	case plan.OpViewScan:
		c += float64(rowsOut) * costPerRowViewRead
	case plan.OpMaterialize:
		c += float64(rowsOut) * costPerRowViewWrite
	case plan.OpOutput:
		// free pass-throughs beyond startup
	}
	return c
}

// Stats records the measured execution profile of one operator — the
// runtime statistics the feedback loop reconciles with compile-time plans
// (paper §5.1): cardinality, data size, exclusive cost, and latency.
type Stats struct {
	Rows           int64   // output cardinality
	Bytes          int64   // output size
	ExclusiveCost  float64 // this operator's own simulated CPU cost
	CumulativeCost float64 // cost of the whole subgraph rooted here
	Latency        float64 // critical-path simulated seconds up to and including this operator
	DOP            int     // degree of parallelism the operator ran with
}
