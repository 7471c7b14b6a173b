package plan

import (
	"cloudviews/internal/expr"
)

// Walk visits the subgraph rooted at n in post-order (children before
// parents), visiting shared nodes exactly once.
func Walk(n *Node, visit func(*Node)) {
	seen := map[*Node]bool{}
	var rec func(*Node)
	rec = func(m *Node) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		for _, c := range m.Children {
			rec(c)
		}
		visit(m)
	}
	rec(n)
}

// Nodes returns all distinct nodes of the subgraph in post-order.
func Nodes(n *Node) []*Node {
	var out []*Node
	Walk(n, func(m *Node) { out = append(out, m) })
	return out
}

// Count returns the number of distinct operators in the subgraph.
func Count(n *Node) int {
	c := 0
	Walk(n, func(*Node) { c++ })
	return c
}

// Clone deep-copies the subgraph, preserving internal sharing: a node that
// feeds two parents in the original feeds the same copies in the clone.
func Clone(n *Node) *Node {
	memo := map[*Node]*Node{}
	var rec func(*Node) *Node
	rec = func(m *Node) *Node {
		if m == nil {
			return nil
		}
		if c, ok := memo[m]; ok {
			return c
		}
		cp := *m
		cp.Children = make([]*Node, len(m.Children))
		memo[m] = &cp
		for i, ch := range m.Children {
			cp.Children[i] = rec(ch)
		}
		return &cp
	}
	return rec(n)
}

// CopyWithChildren returns a shallow copy of n with a freshly allocated
// Children slice (holding the same child pointers). It is the building
// block for copy-on-write rewrites: the caller swaps individual children
// on the copy — for inputs of the same schema, which the copy keeps —
// while the original node and every untouched subtree stay shared and
// unmodified.
func (n *Node) CopyWithChildren() *Node {
	cp := *n
	cp.Children = append([]*Node(nil), n.Children...)
	return &cp
}

// Inputs returns the distinct logical input names (Extract tables) read by
// the subgraph, in first-encounter order.
func Inputs(n *Node) []string {
	var out []string
	seen := map[string]bool{}
	Walk(n, func(m *Node) {
		if m.Kind == OpExtract && !seen[m.Table] {
			seen[m.Table] = true
			out = append(out, m.Table)
		}
	})
	return out
}

// Equal reports whether two subgraphs are structurally identical under the
// given encoding mode.
func Equal(a, b *Node, mode expr.Mode) bool {
	return a.EncodeString(mode) == b.EncodeString(mode)
}

// DeriveProps computes the output physical properties of the subgraph at n
// — the partitioning and sort order the operator's output satisfies. When an
// operator neither establishes nor destroys a property it inherits from its
// child, which realizes the paper's "traverse down until we hit one or more
// physical properties" rule (§5.3).
func DeriveProps(n *Node) PhysicalProps {
	switch n.Kind {
	case OpExtract, OpUnionAll:
		return PhysicalProps{}
	case OpViewScan:
		return PhysicalProps{}
	case OpExchange:
		// A shuffle establishes partitioning and destroys any order —
		// except a range exchange, which leaves each partition sorted on
		// the range columns (the parallel-sort layout).
		p := PhysicalProps{Part: n.Part}
		if n.Part.Kind == PartRange {
			p.Sort = SortOrder{Cols: append([]int(nil), n.Part.Cols...),
				Desc: make([]bool, len(n.Part.Cols))}
		}
		return p
	case OpSort:
		p := DeriveProps(n.Children[0])
		p.Sort = SortOrder{Cols: append([]int(nil), n.SortKeys...), Desc: append([]bool(nil), n.Desc...)}
		return p
	case OpFilter, OpTop, OpOutput, OpMaterialize, OpProcess, OpReduce:
		// Pass-through operators preserve both properties. Process/Reduce
		// append a column, which does not disturb existing columns.
		return DeriveProps(n.Children[0])
	case OpProject:
		return remapProjectProps(n)
	case OpHashJoin:
		left := DeriveProps(n.Children[0])
		p := PhysicalProps{}
		if left.Part.Kind == PartHash && intsEqual(left.Part.Cols, n.LeftKeys) {
			// Join preserves the left child's key partitioning: left
			// columns keep their indexes in the concatenated output.
			p.Part = left.Part
		}
		return p
	case OpHashGbAgg:
		return remapAggProps(n)
	default:
		return PhysicalProps{}
	}
}

func remapProjectProps(n *Node) PhysicalProps {
	child := DeriveProps(n.Children[0])
	// Map input column index -> output index for identity column refs.
	remap := map[int]int{}
	for i, e := range n.Exprs {
		if c, ok := e.(*expr.Col); ok {
			if _, dup := remap[c.Index]; !dup {
				remap[c.Index] = i
			}
		}
	}
	var out PhysicalProps
	if cols, ok := remapCols(child.Part.Cols, remap); ok && child.Part.Kind == PartHash {
		out.Part = Partitioning{Kind: PartHash, Cols: cols, Count: child.Part.Count}
	} else if child.Part.Kind == PartSingleton || child.Part.Kind == PartRoundRobin {
		out.Part = child.Part
	}
	if cols, ok := remapCols(child.Sort.Cols, remap); ok && len(cols) > 0 {
		out.Sort = SortOrder{Cols: cols, Desc: append([]bool(nil), child.Sort.Desc...)}
	}
	return out
}

func remapAggProps(n *Node) PhysicalProps {
	child := DeriveProps(n.Children[0])
	// Output column i corresponds to input column GroupBy[i].
	remap := map[int]int{}
	for i, g := range n.GroupBy {
		remap[g] = i
	}
	var out PhysicalProps
	if cols, ok := remapCols(child.Part.Cols, remap); ok && child.Part.Kind == PartHash {
		out.Part = Partitioning{Kind: PartHash, Cols: cols, Count: child.Part.Count}
	} else if child.Part.Kind == PartSingleton {
		out.Part = child.Part
	}
	return out
}

func remapCols(cols []int, remap map[int]int) ([]int, bool) {
	if len(cols) == 0 {
		return nil, true
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		nc, ok := remap[c]
		if !ok {
			return nil, false
		}
		out[i] = nc
	}
	return out, true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
