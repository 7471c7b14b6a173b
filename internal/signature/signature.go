// Package signature computes the precise and normalized signatures of plan
// subgraphs (paper §3, Figure 7).
//
// The precise signature identifies a computation exactly: it covers the
// operator structure, input GUIDs, recurring parameter values, and UDO code
// hashes. Matching precise signatures is what makes reuse safe — two
// subgraphs with the same precise signature compute byte-identical results.
//
// The normalized signature strips recurring deltas (GUIDs, parameter
// values, code hashes) so that recurring instances of the same script
// template hash identically. The analyzer selects views by normalized
// signature from past instances; the runtime then materializes matching
// subgraphs of future instances and records their precise signatures for
// reuse within the instance.
package signature

import (
	"crypto/sha256"
	"encoding/hex"

	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
)

// Signature pairs the two hashes of one subgraph.
type Signature struct {
	Precise    string
	Normalized string
}

// Of computes the signature of the subgraph rooted at n.
func Of(n *plan.Node) Signature {
	c := NewComputer()
	return c.Of(n)
}

// Computer memoizes per-node signatures so enumerating every subgraph of a
// plan costs O(nodes), not O(nodes²). Both hashes of a node are computed
// together in one bottom-up pass, local encodings go through a reused
// scratch buffer instead of per-node allocations, and normalized hex
// strings are interned process-wide so recurring instances share one
// allocation. Precise strings are not: they hash the input GUIDs, so each
// instance's are new and would only fill the table with dead entries. A Computer is not safe for concurrent use; create one per
// goroutine.
type Computer struct {
	memo map[*plan.Node]Signature
	buf  []byte
}

// NewComputer returns an empty Computer.
func NewComputer() *Computer {
	return &Computer{
		memo: map[*plan.Node]Signature{},
		buf:  make([]byte, 0, 512),
	}
}

// Of returns the signature of the subgraph rooted at n, reusing any
// previously computed child hashes.
func (c *Computer) Of(n *plan.Node) Signature {
	if s, ok := c.memo[n]; ok {
		return s
	}
	var s Signature
	switch {
	case n.Transparent():
		s = c.Of(n.Children[0])
	case n.Kind == plan.OpViewScan:
		// A view scan *is* the computation it replaced; reuse its hash so
		// ancestor signatures are unchanged by the rewrite.
		s = Signature{
			Precise:    n.ViewPreciseSig,
			Normalized: Intern(n.ViewNormSig),
		}
	default:
		// One bottom-up pass: resolve every child first, then derive both
		// of this node's hashes from the memoized child signatures.
		for _, ch := range n.Children {
			c.Of(ch)
		}
		s = Signature{
			Precise:    c.hashLocal(n, expr.Precise),
			Normalized: c.hashLocal(n, expr.Normalized),
		}
	}
	c.memo[n] = s
	return s
}

// hashLocal hashes the node-local encoding combined with the already
// memoized child hashes for one mode. The message layout (local encoding,
// then a zero byte plus child hash per child) and the truncated-hex output
// are a stable format: signatures persist in workload repositories and
// metadata snapshots across versions. Only normalized hashes recur across
// instances, so only they are interned.
func (c *Computer) hashLocal(n *plan.Node, mode expr.Mode) string {
	buf := n.AppendLocal(c.buf[:0], mode)
	for _, ch := range n.Children {
		cs := c.memo[ch]
		buf = append(buf, 0)
		if mode == expr.Precise {
			buf = append(buf, cs.Precise...)
		} else {
			buf = append(buf, cs.Normalized...)
		}
	}
	c.buf = buf[:0]
	sum := sha256.Sum256(buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if mode == expr.Precise {
		return string(hexSum[:32])
	}
	return InternBytes(hexSum[:32])
}

// Alias records that clone denotes the same computation as orig, so
// copy-on-write plan rewrites can transfer memoized signatures to copied
// nodes instead of rehashing their subtrees.
func (c *Computer) Alias(orig, clone *plan.Node) {
	if s, ok := c.memo[orig]; ok {
		c.memo[clone] = s
	}
}

// AllSubgraphs returns the signature of every distinct subgraph (node) of
// the plan, in post-order. Transparent wrappers (Materialize) are
// skipped: they denote the same computation as their child.
func (c *Computer) AllSubgraphs(root *plan.Node) []SubgraphSig {
	var out []SubgraphSig
	plan.Walk(root, func(n *plan.Node) {
		if n.Transparent() {
			return
		}
		out = append(out, SubgraphSig{Node: n, Sig: c.Of(n)})
	})
	return out
}

// SubgraphSig pairs a subgraph root with its signature.
type SubgraphSig struct {
	Node *plan.Node
	Sig  Signature
}
