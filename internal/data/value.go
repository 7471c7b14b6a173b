// Package data provides the typed value, row, schema, and partitioned table
// primitives shared by the plan, execution, and storage layers.
//
// Values are kept in a compact tagged union so rows can be hashed, compared,
// and shuffled without reflection. Dates are represented as days since the
// Unix epoch, which is all the recurring-workload machinery needs (recurring
// jobs vary date predicates per instance).
package data

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate // days since 1970-01-01
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IntPayload reports whether values of kind k carry their payload in
// Value.I: ints, dates and bools. Compare orders any two of them by I.
func (k Kind) IntPayload() bool {
	return k == KindInt || k == KindDate || k == KindBool
}

// Value is a dynamically typed scalar. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // payload for KindInt, KindBool (0/1), KindDate
	F float64 // payload for KindFloat
	S string  // payload for KindString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// String_ returns a string value. The trailing underscore avoids colliding
// with the fmt.Stringer method on Value.
func String_(v string) Value { return Value{K: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// Date returns a date value expressed as days since the Unix epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether v is a true boolean. NULL and non-booleans are false.
func (v Value) Truth() bool { return v.K == KindBool && v.I != 0 }

// AsFloat converts numeric values to float64; other kinds yield 0.
func (v Value) AsFloat() float64 {
	switch {
	case v.K.IntPayload():
		return float64(v.I)
	case v.K == KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt converts numeric values to int64; other kinds yield 0.
func (v Value) AsInt() int64 {
	switch {
	case v.K.IntPayload():
		return v.I
	case v.K == KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value for debugging and report output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return "d" + strconv.FormatInt(v.I, 10)
	default:
		return "?"
	}
}

// AppendString appends the String rendering of v to dst and returns the
// extended slice. Kept byte-identical to String: canonical plan encodings
// embed values, so the two renderings must never diverge.
func (v Value) AppendString(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	case KindBool:
		if v.I != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindDate:
		return strconv.AppendInt(append(dst, 'd'), v.I, 10)
	default:
		return append(dst, '?')
	}
}

// numericKind reports whether k participates in numeric comparison.
func numericKind(k Kind) bool {
	return k == KindFloat || k.IntPayload()
}

// rank groups kinds into comparison classes so mixed-kind ordering is a
// total order: NULL < all numerics < strings.
func rank(k Kind) int {
	switch {
	case k == KindNull:
		return 0
	case numericKind(k):
		return 1
	default:
		return 2
	}
}

// Compare orders two values: -1 if a < b, 0 if equal, +1 if a > b.
// NULL sorts before everything, numerics before strings. Numeric kinds
// compare by value so Int(3) equals Float(3.0).
func Compare(a, b Value) int {
	// Same-kind fast path: comparisons on the join/group/sort hot loops are
	// almost always same-kind. Each branch reproduces the mixed-kind logic
	// below exactly — in particular the float switch keeps NaN comparing
	// equal to everything, as </> both report false.
	if a.K == b.K {
		switch {
		case a.K.IntPayload():
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		case a.K == KindFloat:
			switch {
			case a.F < b.F:
				return -1
			case a.F > b.F:
				return 1
			}
			return 0
		case a.K == KindString:
			switch {
			case a.S < b.S:
				return -1
			case a.S > b.S:
				return 1
			}
			return 0
		case a.K == KindNull:
			return 0
		}
	}
	if ra, rb := rank(a.K), rank(b.K); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if a.K == KindNull {
		return 0
	}
	if numericKind(a.K) {
		if a.K == KindFloat || b.K == KindFloat {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	// Both rank 2: compare as strings.
	switch {
	case a.S < b.S:
		return -1
	case a.S > b.S:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a 64-bit parameters. Hash64 computes FNV-1a inline rather than
// through hash/fnv: the streaming interface costs an indirect call per
// Write and a []byte(string) copy per string value, and value hashing sits
// on the shuffle/join/group hot path. The byte stream hashed is unchanged
// (kind tag, then payload little-endian), so every hash — and therefore
// every partition assignment — is identical to the hash/fnv-based
// implementation; TestValueHash64MatchesFNVReference pins the equality.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix8 folds an 8-byte little-endian payload into an FNV-1a state.
func fnvMix8(h, v uint64) uint64 {
	// Unrolled byte-at-a-time FNV-1a: the multiply chain is inherently
	// serial, but unrolling drops the loop-carried counter and branch.
	h = (h ^ (v & 0xff)) * fnvPrime64
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 56)) * fnvPrime64
	return h
}

// Hash64 returns a 64-bit hash of the value, consistent with Equal for
// same-kind values (the executor only hashes join/group keys of one kind).
func (v Value) Hash64() uint64 {
	h := (uint64(fnvOffset64) ^ uint64(byte(v.K))) * fnvPrime64
	switch v.K {
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime64
		}
		return h
	case KindFloat:
		bits := math.Float64bits(v.F)
		// Normalize -0.0 to 0.0 so Equal values hash alike.
		if v.F == 0 {
			bits = 0
		}
		return fnvMix8(h, bits)
	default:
		return fnvMix8(h, uint64(v.I))
	}
}

// ByteSize returns the approximate in-memory size of the value in bytes,
// used by the cost model and storage accounting.
func (v Value) ByteSize() int64 {
	if v.K == KindString {
		return int64(16 + len(v.S))
	}
	return 16
}
