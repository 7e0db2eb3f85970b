// Package vector provides the position-list representations that the
// column-oriented executor operates on, and the per-value iterator the
// Figure 7 ablation degrades block iteration to.
//
// Operators exchange blocks of int32 values ([]int32) rather than tuples,
// which is the "block iteration" optimization from Section 5.3 of the
// paper. Position lists (Positions) are the intermediate results of
// predicate evaluation under late materialization (Section 5.2): ordinal
// offsets into a column, represented either as a contiguous range, an
// explicit sorted array, or a bitmap.
package vector

import "repro/internal/bitmap"

// Int32Iterator is the tuple-at-a-time ("getNext") access path over a block
// of int32 values. It exists so the Figure 7 ablation can degrade block
// iteration to one interface call per value, matching how the paper replaced
// C-Store's "asArray" interface with "getNext".
type Int32Iterator interface {
	// Next returns the next value; ok is false when the block is exhausted.
	Next() (val int32, ok bool)
}

// SliceIter adapts a []int32 to Int32Iterator. Each Next is a real interface
// method call, so per-value overhead is paid just as in a Volcano engine.
type SliceIter struct {
	vals []int32
	i    int
}

// NewSliceIter returns an iterator over vals.
func NewSliceIter(vals []int32) *SliceIter { return &SliceIter{vals: vals} }

// Next implements Int32Iterator.
func (it *SliceIter) Next() (int32, bool) {
	if it.i >= len(it.vals) {
		return 0, false
	}
	v := it.vals[it.i]
	it.i++
	return v, true
}

// PosKind identifies the physical representation of a Positions list.
type PosKind uint8

const (
	// PosRange is a contiguous [Start, End) interval — the cheapest
	// representation, produced by predicates on sorted (RLE) columns.
	PosRange PosKind = iota
	// PosExplicit is a sorted array of positions, good for selective
	// predicates.
	PosExplicit
	// PosBitmap is a fixed-length bitmap, good for predicates of moderate
	// selectivity and for fast intersection.
	PosBitmap
)

// Positions is a list of ordinal offsets into a column, in ascending order.
// It is the currency of late-materialized plans.
type Positions struct {
	Kind  PosKind
	Start int32 // PosRange
	End   int32 // PosRange, exclusive
	List  []int32
	Bits  *bitmap.Bitmap
}

// NewRangePositions returns positions covering [start, end).
func NewRangePositions(start, end int32) *Positions {
	return &Positions{Kind: PosRange, Start: start, End: end}
}

// NewExplicitPositions returns positions backed by a sorted slice.
func NewExplicitPositions(list []int32) *Positions {
	return &Positions{Kind: PosExplicit, List: list}
}

// NewBitmapPositions returns positions backed by a bitmap.
func NewBitmapPositions(b *bitmap.Bitmap) *Positions {
	return &Positions{Kind: PosBitmap, Bits: b}
}

// Len returns the number of selected positions.
func (p *Positions) Len() int {
	switch p.Kind {
	case PosRange:
		if p.End <= p.Start {
			return 0
		}
		return int(p.End - p.Start)
	case PosExplicit:
		return len(p.List)
	default:
		return p.Bits.Count()
	}
}

// ForEach calls fn for every selected position in ascending order.
func (p *Positions) ForEach(fn func(pos int32)) {
	switch p.Kind {
	case PosRange:
		for i := p.Start; i < p.End; i++ {
			fn(i)
		}
	case PosExplicit:
		for _, i := range p.List {
			fn(i)
		}
	default:
		p.Bits.ForEach(func(i int) { fn(int32(i)) })
	}
}

// ToBitmap renders the positions as a bitmap of length n. When the positions
// are already a bitmap of the right length it is returned directly (not a
// copy).
func (p *Positions) ToBitmap(n int) *bitmap.Bitmap {
	switch p.Kind {
	case PosBitmap:
		if p.Bits.Len() == n {
			return p.Bits
		}
		b := bitmap.New(n)
		p.Bits.ForEach(func(i int) { b.Set(i) })
		return b
	case PosRange:
		b := bitmap.New(n)
		b.SetRange(int(p.Start), int(p.End))
		return b
	default:
		b := bitmap.New(n)
		for _, i := range p.List {
			b.Set(int(i))
		}
		return b
	}
}

// ToSlice renders the positions as an explicit sorted []int32, appending to
// dst.
func (p *Positions) ToSlice(dst []int32) []int32 {
	switch p.Kind {
	case PosRange:
		for i := p.Start; i < p.End; i++ {
			dst = append(dst, i)
		}
	case PosExplicit:
		dst = append(dst, p.List...)
	default:
		dst = p.Bits.AppendPositions(dst)
	}
	return dst
}

// AppendSeq appends the consecutive positions [start, end) to dst. It is the
// selection-vector analogue of NewRangePositions, used when a fused scan
// keeps an entire block and must materialize explicit survivor indexes.
func AppendSeq(dst []int32, start, end int32) []int32 {
	for i := start; i < end; i++ {
		dst = append(dst, i)
	}
	return dst
}
