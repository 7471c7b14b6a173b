package data

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Row is a tuple of values laid out in schema order.
type Row []Value

// Hash64 hashes the subset of columns named by idx; with no indexes it
// hashes the whole row. Used for shuffles, hash joins, and grouping.
//
// Per-column hashes are combined with a rotate-xor-multiply step, so the
// mix is order-sensitive — (a,b) and (b,a) land in different buckets — and
// a duplicated key column cannot cancel itself back to the seed. The
// finalizer forces full avalanche: shuffle partitioning reduces the hash
// with `% count` for small power-of-two counts, so the low bits must
// depend on every input bit.
func (r Row) Hash64(idx ...int) uint64 {
	const seed = 14695981039346656037
	h := uint64(seed)
	if len(idx) == 0 {
		for _, v := range r {
			h = (bits.RotateLeft64(h, 25) ^ v.Hash64()) * 0x9e3779b97f4a7c15
		}
	} else {
		for _, i := range idx {
			h = (bits.RotateLeft64(h, 25) ^ r[i].Hash64()) * 0x9e3779b97f4a7c15
		}
	}
	// fmix64 finalizer (64-bit MurmurHash3).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ByteSize returns the approximate size of the row in bytes.
func (r Row) ByteSize() int64 {
	var n int64
	for _, v := range r {
		n += v.ByteSize()
	}
	return n
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CompareRows orders rows column-by-column over the key indexes; descending
// directions flip the per-column order. len(desc) may be shorter than keys,
// in which case missing entries are ascending.
func CompareRows(a, b Row, keys []int, desc []bool) int {
	for i, k := range keys {
		c := Compare(a[k], b[k])
		if c == 0 {
			continue
		}
		if i < len(desc) && desc[i] {
			return -c
		}
		return c
	}
	return 0
}

// SortRows sorts rows in place by the given key columns and directions,
// using a stable sort so equal keys preserve input order. The generic
// slices.SortStableFunc avoids sort.SliceStable's reflection-based swaps;
// both are stable under the same comparator, so the output order is
// identical element for element.
func SortRows(rows []Row, keys []int, desc []bool) {
	slices.SortStableFunc(rows, func(a, b Row) int {
		return CompareRows(a, b, keys, desc)
	})
}

// RowsEqual reports whether two row sets are equal as multisets, ignoring
// order. It is the comparator used by correctness tests (CloudViews must
// never change query results).
func RowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	ka := canonicalize(a)
	kb := canonicalize(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func canonicalize(rows []Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(keys)
	return keys
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Project returns the schema restricted to the given column indexes.
func (s Schema) Project(idx []int) Schema {
	out := make(Schema, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// Concat returns the concatenation of two schemas (join output shape).
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// String renders the schema as "name:kind, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}
