// Package compress implements the column-oriented compression schemes from
// Section 5.1 of the paper — run-length encoding, bit-packing, and
// order-preserving dictionary encoding — together with the
// "direct operation on compressed data" access paths (predicate application
// and value gather without full decompression).
package compress

import "sort"

// Op is a comparison operator applied to int32 column values.
type Op uint8

const (
	// OpEq matches v == A.
	OpEq Op = iota
	// OpNe matches v != A.
	OpNe
	// OpLt matches v < A.
	OpLt
	// OpLe matches v <= A.
	OpLe
	// OpGt matches v > A.
	OpGt
	// OpGe matches v >= A.
	OpGe
	// OpBetween matches A <= v <= B (inclusive on both ends, as in the
	// paper's between-predicate rewriting).
	OpBetween
	// OpIn matches v ∈ Set (Set must be sorted ascending).
	OpIn
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "between"
	case OpIn:
		return "in"
	default:
		return "?"
	}
}

// Pred is a predicate over int32 values. A and B are operands; Set is used
// only by OpIn and must be sorted ascending.
type Pred struct {
	Op  Op
	A   int32
	B   int32
	Set []int32
}

// Eq returns an equality predicate.
func Eq(a int32) Pred { return Pred{Op: OpEq, A: a} }

// Between returns an inclusive range predicate A <= v <= B.
func Between(a, b int32) Pred { return Pred{Op: OpBetween, A: a, B: b} }

// Lt returns v < a.
func Lt(a int32) Pred { return Pred{Op: OpLt, A: a} }

// Le returns v <= a.
func Le(a int32) Pred { return Pred{Op: OpLe, A: a} }

// Gt returns v > a.
func Gt(a int32) Pred { return Pred{Op: OpGt, A: a} }

// Ge returns v >= a.
func Ge(a int32) Pred { return Pred{Op: OpGe, A: a} }

// In returns v ∈ set. The slice is sorted in place.
func In(set ...int32) Pred {
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return Pred{Op: OpIn, Set: set}
}

// Match reports whether v satisfies the predicate.
func (p Pred) Match(v int32) bool {
	switch p.Op {
	case OpEq:
		return v == p.A
	case OpNe:
		return v != p.A
	case OpLt:
		return v < p.A
	case OpLe:
		return v <= p.A
	case OpGt:
		return v > p.A
	case OpGe:
		return v >= p.A
	case OpBetween:
		return v >= p.A && v <= p.B
	case OpIn:
		i := sort.Search(len(p.Set), func(i int) bool { return p.Set[i] >= v })
		return i < len(p.Set) && p.Set[i] == v
	default:
		return false
	}
}

// Bounds returns the closed interval [lo, hi] of values that could satisfy
// the predicate, and ok=false when the predicate is not representable as a
// single interval (OpNe, OpIn with gaps). It is used for block pruning via
// min/max statistics and for the sorted-column fast path.
func (p Pred) Bounds() (lo, hi int32, ok bool) {
	const (
		minI = -1 << 31
		maxI = 1<<31 - 1
	)
	switch p.Op {
	case OpEq:
		return p.A, p.A, true
	case OpLt:
		if p.A == minI {
			return 0, -1, true // v < MinInt32: empty, and A-1 would wrap
		}
		return minI, p.A - 1, true
	case OpLe:
		return minI, p.A, true
	case OpGt:
		if p.A == maxI {
			return 0, -1, true // v > MaxInt32: empty, and A+1 would wrap
		}
		return p.A + 1, maxI, true
	case OpGe:
		return p.A, maxI, true
	case OpBetween:
		return p.A, p.B, true
	case OpIn:
		if len(p.Set) == 0 {
			return 0, -1, true // empty: matches nothing
		}
		// Contiguous integer sets collapse to a between interval.
		for i := 1; i < len(p.Set); i++ {
			if p.Set[i] != p.Set[i-1]+1 {
				return p.Set[0], p.Set[len(p.Set)-1], false
			}
		}
		return p.Set[0], p.Set[len(p.Set)-1], true
	default:
		return minI, maxI, false
	}
}

// MayMatch reports whether any value in [min, max] could satisfy the
// predicate; used to skip whole blocks.
func (p Pred) MayMatch(min, max int32) bool {
	switch p.Op {
	case OpNe:
		return !(min == max && min == p.A)
	case OpIn:
		for _, v := range p.Set {
			if v >= min && v <= max {
				return true
			}
		}
		return false
	default:
		lo, hi, _ := p.Bounds()
		return lo <= max && hi >= min
	}
}
