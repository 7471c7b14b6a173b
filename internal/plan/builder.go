package plan

import (
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
)

// built stamps a new node's derived schema. Builders derive it here, once,
// so Schema never writes to a node and concurrent jobs may read one plan.
func built(n *Node) *Node {
	n.schema = n.deriveSchema()
	return n
}

// Scan builds a base-table leaf. table is the logical name shared across
// recurring instances; guid identifies the concrete data version.
func Scan(table, guid string, schema data.Schema) *Node {
	return built(&Node{Kind: OpExtract, Table: table, GUID: guid, TableSchema: schema})
}

// Filter builds a selection over n.
func (n *Node) Filter(pred expr.Expr) *Node {
	return built(&Node{Kind: OpFilter, Children: []*Node{n}, Pred: pred})
}

// Project builds a projection; names and exprs are parallel.
func (n *Node) Project(names []string, exprs []expr.Expr) *Node {
	return built(&Node{Kind: OpProject, Children: []*Node{n}, Names: names, Exprs: exprs})
}

// ProjectCols projects a subset of input columns by index, preserving names.
func (n *Node) ProjectCols(cols ...int) *Node {
	in := n.Schema()
	names := make([]string, len(cols))
	exprs := make([]expr.Expr, len(cols))
	for i, c := range cols {
		names[i] = in[c].Name
		exprs[i] = expr.C(c, in[c].Name)
	}
	return n.Project(names, exprs)
}

// HashJoin builds an inner hash join of n (left) with right on the key
// column indexes.
func (n *Node) HashJoin(right *Node, leftKeys, rightKeys []int) *Node {
	return built(&Node{Kind: OpHashJoin, Children: []*Node{n, right},
		LeftKeys: leftKeys, RightKeys: rightKeys})
}

// HashAgg builds a hash group-by aggregation.
func (n *Node) HashAgg(groupBy []int, aggs []AggSpec) *Node {
	return built(&Node{Kind: OpHashGbAgg, Children: []*Node{n}, GroupBy: groupBy, Aggs: aggs})
}

// Sort builds a total sort on the key columns.
func (n *Node) Sort(keys []int, desc []bool) *Node {
	return built(&Node{Kind: OpSort, Children: []*Node{n}, SortKeys: keys, Desc: desc})
}

// Exchange builds a shuffle that enforces the given partitioning.
func (n *Node) Exchange(part Partitioning) *Node {
	return built(&Node{Kind: OpExchange, Children: []*Node{n}, Part: part})
}

// ShuffleHash is shorthand for a hash repartitioning exchange.
func (n *Node) ShuffleHash(cols []int, count int) *Node {
	return n.Exchange(Partitioning{Kind: PartHash, Cols: cols, Count: count})
}

// Gather is shorthand for an exchange that merges to a single partition.
func (n *Node) Gather() *Node {
	return n.Exchange(Partitioning{Kind: PartSingleton, Count: 1})
}

// RangePartition is shorthand for a range-partitioning exchange: the
// parallel-sort primitive. Output partitions cover disjoint ascending key
// ranges and each partition is sorted on cols.
func (n *Node) RangePartition(cols []int, count int) *Node {
	return n.Exchange(Partitioning{Kind: PartRange, Cols: cols, Count: count})
}

// UnionAll concatenates n with the other inputs.
func (n *Node) UnionAll(others ...*Node) *Node {
	return built(&Node{Kind: OpUnionAll, Children: append([]*Node{n}, others...)})
}

// Top keeps the first k rows (after any enclosing sort).
func (n *Node) Top(k int64) *Node {
	return built(&Node{Kind: OpTop, Children: []*Node{n}, N: k})
}

// Process applies a row-wise user-defined operator, appending one column.
func (n *Node) Process(udoName, codeHash string) *Node {
	return built(&Node{Kind: OpProcess, Children: []*Node{n}, UDOName: udoName, UDOCodeHash: codeHash})
}

// Reduce applies a group-wise user-defined operator on the group columns,
// appending one column.
func (n *Node) Reduce(udoName, codeHash string, groupBy []int) *Node {
	return built(&Node{Kind: OpReduce, Children: []*Node{n}, UDOName: udoName,
		UDOCodeHash: codeHash, GroupBy: groupBy})
}

// Output terminates the plan with a named sink.
func (n *Node) Output(name string) *Node {
	return built(&Node{Kind: OpOutput, Children: []*Node{n}, OutputName: name})
}

// ViewScan builds a leaf that reads a materialized view.
func ViewScan(path string, schema data.Schema, preciseSig, normSig string) *Node {
	return built(&Node{Kind: OpViewScan, ViewPath: path, ViewSchema: schema,
		ViewPreciseSig: preciseSig, ViewNormSig: normSig})
}

// Materialize wraps n so its output is also written to a view at path with
// the given physical design.
func (n *Node) Materialize(path, preciseSig, normSig string, props PhysicalProps) *Node {
	return built(&Node{Kind: OpMaterialize, Children: []*Node{n}, MatPath: path,
		MatPreciseSig: preciseSig, MatNormSig: normSig, MatProps: props})
}
