package plan

import (
	"fmt"
	"strconv"

	"cloudviews/internal/expr"
)

// AppendEncode appends the canonical encoding of the subgraph rooted at n
// to dst and returns the extended slice.
//
// In expr.Precise mode the encoding includes input GUIDs, recurring
// parameter values, and UDO code hashes — two subgraphs with equal precise
// encodings compute the same result. In expr.Normalized mode those
// recurring deltas are stripped, so recurring instances of the same script
// template encode identically (paper §3).
//
// OpViewScan encodes as the signature of the computation it replaced and
// OpMaterialize encodes as its child, so rewriting a plan to use or build
// views never changes the encoding of surrounding operators.
func (n *Node) AppendEncode(dst []byte, mode expr.Mode) []byte {
	if n.Transparent() {
		// A materialized computation is the same computation.
		return n.Children[0].AppendEncode(dst, mode)
	}
	if n.Kind == OpExtract || n.Kind == OpViewScan {
		return n.AppendLocal(dst, mode)
	}
	dst = n.AppendLocal(dst, mode)
	for _, c := range n.Children {
		dst = append(dst, ' ')
		dst = c.AppendEncode(dst, mode)
	}
	return append(dst, ')')
}

// Transparent reports whether n is invisible to encodings and signatures:
// its computation is exactly its child's computation.
func (n *Node) Transparent() bool {
	return n.Kind == OpMaterialize
}

// AppendLocal appends only the node-local portion of the canonical
// encoding: the operator token and its arguments, without the children.
// Leaf operators (Extract, ViewScan) emit complete encodings; for all
// other operators the caller is responsible for the closing parenthesis.
// The signature layer combines local encodings with child hashes to
// compute subgraph signatures in O(n) per plan; it is fmt-free and
// allocation-free when dst has capacity.
func (n *Node) AppendLocal(dst []byte, mode expr.Mode) []byte {
	switch n.Kind {
	case OpExtract:
		dst = append(dst, "(extract "...)
		dst = append(dst, n.Table...)
		if mode == expr.Precise {
			dst = append(dst, " @"...)
			dst = append(dst, n.GUID...)
		}
		return append(dst, ')')
	case OpViewScan:
		if mode == expr.Precise {
			return append(dst, n.ViewPreciseSig...)
		}
		return append(dst, n.ViewNormSig...)
	}
	dst = append(dst, '(')
	dst = append(dst, opToken(n.Kind)...)
	switch n.Kind {
	case OpFilter:
		dst = append(dst, ' ')
		dst = n.Pred.AppendTo(dst, mode)
	case OpProject:
		for _, e := range n.Exprs {
			dst = append(dst, ' ')
			dst = e.AppendTo(dst, mode)
		}
	case OpHashJoin:
		dst = append(dst, ' ')
		dst = appendInts(dst, n.LeftKeys)
		dst = append(dst, ' ')
		dst = appendInts(dst, n.RightKeys)
	case OpHashGbAgg:
		dst = append(dst, ' ')
		dst = appendInts(dst, n.GroupBy)
		for _, a := range n.Aggs {
			dst = append(dst, " ("...)
			dst = append(dst, a.Fn.String()...)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(a.Col), 10)
			dst = append(dst, ')')
		}
	case OpSort:
		dst = append(dst, ' ')
		dst = appendInts(dst, n.SortKeys)
		dst = append(dst, ' ')
		dst = appendBools(dst, n.Desc)
	case OpExchange:
		dst = append(dst, ' ')
		dst = append(dst, n.Part.Kind.String()...)
		dst = append(dst, ' ')
		dst = appendInts(dst, n.Part.Cols)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(n.Part.Count), 10)
	case OpTop:
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, n.N, 10)
	case OpProcess, OpReduce:
		dst = append(dst, ' ')
		dst = append(dst, n.UDOName...)
		if mode == expr.Precise {
			dst = append(dst, " #"...)
			dst = append(dst, n.UDOCodeHash...)
		}
		if n.Kind == OpReduce {
			dst = append(dst, ' ')
			dst = appendInts(dst, n.GroupBy)
		}
	case OpOutput:
		dst = append(dst, ' ')
		dst = append(dst, n.OutputName...)
	}
	return dst
}

// appendInts appends xs in fmt's %v rendering: "[1 2 3]", "[]" when empty.
func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendBools appends xs in fmt's %v rendering: "[true false]".
func appendBools(dst []byte, xs []bool) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if x {
			dst = append(dst, "true"...)
		} else {
			dst = append(dst, "false"...)
		}
	}
	return append(dst, ']')
}

// opToken returns the stable token used in canonical encodings. It is
// decoupled from OpKind.String so renaming display strings can never
// silently change every signature in a workload repository.
func opToken(k OpKind) string {
	switch k {
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpHashJoin:
		return "hashjoin"
	case OpHashGbAgg:
		return "hashagg"
	case OpSort:
		return "sort"
	case OpExchange:
		return "exchange"
	case OpUnionAll:
		return "unionall"
	case OpTop:
		return "top"
	case OpProcess:
		return "process"
	case OpReduce:
		return "reduce"
	case OpOutput:
		return "output"
	default:
		return fmt.Sprintf("op%d", int(k))
	}
}

// EncodeString returns the canonical encoding of the subgraph at n.
func (n *Node) EncodeString(mode expr.Mode) string {
	return string(n.AppendEncode(nil, mode))
}
