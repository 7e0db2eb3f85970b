package compress

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// Dict is an order-preserving string dictionary: codes are assigned in
// lexicographic order, so value comparisons translate to code comparisons.
// This is the "dictionary encoding for the purpose of key reassignment"
// mechanism from Section 5.4.2 — because codes form a dense, ordered,
// contiguous set starting at 0, predicates on dictionary-encoded dimension
// attributes yield contiguous code ranges, enabling between-predicate
// rewriting of joins.
//
// Invariant: the values are strictly ascending in code order (sorted and
// unique). That order is also the index: Code and EncodePred binary-search
// the values, so a dictionary keeps no hash map beside them.
// All values live in one immutable string, concatenated in code order, with
// an offset array marking where each begins: a dictionary is three objects
// however many values it holds, and neither the string's bytes nor the
// offsets hold a pointer for the garbage collector to scan.
type Dict struct {
	data string
	// offs[c] is where value c begins in data; offs[Size()] == len(data).
	offs []uint32
}

// BuildDict constructs an order-preserving dictionary over the distinct
// values in vals (any order, duplicates allowed; vals is not modified).
func BuildDict(vals []string) *Dict {
	seen := make(map[string]struct{}, 64)
	n := 0
	for _, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			n += len(v)
		}
	}
	sorted := slices.Sorted(maps.Keys(seen))
	var b strings.Builder
	b.Grow(n)
	offs := make([]uint32, 1, len(sorted)+1)
	for _, v := range sorted {
		b.WriteString(v)
		offs = append(offs, uint32(b.Len()))
	}
	d, err := NewSortedDict(b.String(), offs)
	if err != nil {
		panic("compress: " + err.Error())
	}
	return d
}

// NewSortedDict adopts a dictionary already in code order: data holds the
// values concatenated, and offs has one entry per value giving where it
// begins plus a final len(data). It refuses offsets that are not a
// partition of data, and values that are not strictly ascending — codes
// stored against such a dictionary would not follow the order of the
// values. It does not copy data or offs.
func NewSortedDict(data string, offs []uint32) (*Dict, error) {
	if uint64(len(data)) > math.MaxUint32 {
		return nil, fmt.Errorf("dictionary of %d bytes overflows its 32-bit offsets", len(data))
	}
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != uint32(len(data)) {
		return nil, fmt.Errorf("dictionary offsets do not span its %d bytes", len(data))
	}
	d := &Dict{data: data, offs: offs}
	for c := 1; c < d.Size(); c++ {
		if offs[c+1] < offs[c] {
			return nil, fmt.Errorf("dictionary offset %d decreases", c+1)
		}
		if prev, v := d.Value(int32(c-1)), d.Value(int32(c)); prev >= v {
			return nil, fmt.Errorf("dictionary value %d %q is not above value %d %q", c, v, c-1, prev)
		}
	}
	return d, nil
}

// Size returns the number of distinct values.
func (d *Dict) Size() int { return max(len(d.offs)-1, 0) }

// Bytes is the memory the dictionary holds: its values and its offsets.
func (d *Dict) Bytes() int64 { return int64(len(d.data) + 4*len(d.offs)) }

// Code returns the code for value s, with ok=false when s is not in the
// dictionary.
func (d *Dict) Code(s string) (int32, bool) {
	c := d.lowerBound(s)
	if int(c) < d.Size() && d.Value(c) == s {
		return c, true
	}
	return 0, false
}

// Value returns the string for code c, a substring of the dictionary's
// one string (no allocation).
func (d *Dict) Value(c int32) string { return d.data[d.offs[c]:d.offs[c+1]] }

// Values returns the values in code order, in a fresh slice.
func (d *Dict) Values() []string {
	vals := make([]string, d.Size())
	for c := range vals {
		vals[c] = d.Value(int32(c))
	}
	return vals
}

// Encode maps vals to codes, appending to dst. Values absent from the
// dictionary map to -1. It codes whole columns, so it hashes through a map
// local to the call: a binary search per row would cost log2(Size())
// string comparisons each.
func (d *Dict) Encode(vals []string, dst []int32) []int32 {
	idx := make(map[string]int32, d.Size())
	for c := range d.Size() {
		idx[d.Value(int32(c))] = int32(c)
	}
	for _, v := range vals {
		c, ok := idx[v]
		if !ok {
			c = -1
		}
		dst = append(dst, c)
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
		if c, ok := d.Code(a); ok {
			return Eq(c)
		}
		return Between(1, 0) // matches nothing
	case OpNe:
		if c, ok := d.Code(a); ok {
			return Pred{Op: OpNe, A: c}
		}
		return Between(0, int32(d.Size()-1)) // everything
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
			if c, ok := d.Code(s); ok {
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
	lo, hi := 0, d.Size()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.Value(int32(m)) < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// upperBound returns the first code whose value is > s.
func (d *Dict) upperBound(s string) int32 {
	lo, hi := 0, d.Size()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.Value(int32(m)) <= s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}
