package compress

import "sort"

// Dict is an order-preserving string dictionary: codes are assigned in
// lexicographic order, so value comparisons translate to code comparisons.
// This is the "dictionary encoding for the purpose of key reassignment"
// mechanism from Section 5.4.2 — because codes form a dense, ordered,
// contiguous set starting at 0, predicates on dictionary-encoded dimension
// attributes yield contiguous code ranges, enabling between-predicate
// rewriting of joins.
type Dict struct {
	vals []string
	idx  map[string]int32
}

// BuildDict constructs an order-preserving dictionary over the distinct
// values in vals.
func BuildDict(vals []string) *Dict {
	seen := make(map[string]struct{}, 64)
	for _, v := range vals {
		seen[v] = struct{}{}
	}
	d := &Dict{
		vals: make([]string, 0, len(seen)),
		idx:  make(map[string]int32, len(seen)),
	}
	for v := range seen {
		d.vals = append(d.vals, v)
	}
	sort.Strings(d.vals)
	for i, v := range d.vals {
		d.idx[v] = int32(i)
	}
	return d
}

// Size returns the number of distinct values.
func (d *Dict) Size() int { return len(d.vals) }

// Code returns the code for value s, with ok=false when s is not in the
// dictionary.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.idx[s]
	return c, ok
}

// Value returns the string for code c.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// Values returns the sorted distinct values (do not mutate).
func (d *Dict) Values() []string { return d.vals }

// Encode maps vals to codes, appending to dst. Values absent from the
// dictionary map to -1.
func (d *Dict) Encode(vals []string, dst []int32) []int32 {
	for _, v := range vals {
		if c, ok := d.idx[v]; ok {
			dst = append(dst, c)
		} else {
			dst = append(dst, -1)
		}
	}
	return dst
}

// EncodePred translates a string predicate into the equivalent predicate
// over dictionary codes. Because the dictionary is order-preserving,
// range predicates map to code ranges exactly.
//
// For operators with a value not present in the dictionary, the tightest
// enclosing code interval is used (e.g. "< x" becomes "< firstCodeGE(x)").
func (d *Dict) EncodePred(op Op, a, b string, set []string) Pred {
	switch op {
	case OpEq:
		if c, ok := d.idx[a]; ok {
			return Eq(c)
		}
		return Between(1, 0) // matches nothing
	case OpNe:
		if c, ok := d.idx[a]; ok {
			return Pred{Op: OpNe, A: c}
		}
		return Between(0, int32(len(d.vals)-1)) // everything
	case OpBetween:
		lo := d.lowerBound(a)
		hi := d.upperBound(b)
		return Between(lo, hi-1)
	case OpLt:
		return Lt(d.lowerBound(a))
	case OpLe:
		return Lt(d.upperBound(a))
	case OpGt:
		return Ge(d.upperBound(a))
	case OpGe:
		return Ge(d.lowerBound(a))
	case OpIn:
		codes := make([]int32, 0, len(set))
		for _, s := range set {
			if c, ok := d.idx[s]; ok {
				codes = append(codes, c)
			}
		}
		return In(codes...)
	default:
		return Between(1, 0)
	}
}

// lowerBound returns the first code whose value is >= s.
func (d *Dict) lowerBound(s string) int32 {
	return int32(sort.SearchStrings(d.vals, s))
}

// upperBound returns the first code whose value is > s.
func (d *Dict) upperBound(s string) int32 {
	return int32(sort.Search(len(d.vals), func(i int) bool { return d.vals[i] > s }))
}
