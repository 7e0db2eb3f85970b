package compress

import (
	"math/bits"

	"repro/internal/bitmap"
)

// DeltaBlock stores the first value and bit-packed successive differences.
// It suits near-monotonic sequences such as order keys, where deltas are
// tiny even though absolute values span the whole int32 range.
type DeltaBlock struct {
	first    int32
	deltas   []uint64 // packed
	width    uint
	minDelta int64
	n        int
	min, max int32
}

// NewDeltaBlock delta-encodes vals.
func NewDeltaBlock(vals []int32) *DeltaBlock {
	mn, mx := minMax(vals)
	b := &DeltaBlock{n: len(vals), min: mn, max: mx}
	if len(vals) == 0 {
		return b
	}
	b.first = vals[0]
	// Find delta range.
	minD, maxD := int64(0), int64(0)
	for i := 1; i < len(vals); i++ {
		d := int64(vals[i]) - int64(vals[i-1])
		if i == 1 || d < minD {
			minD = d
		}
		if i == 1 || d > maxD {
			maxD = d
		}
	}
	b.minDelta = minD
	width := uint(bits.Len64(uint64(maxD - minD)))
	if width == 0 {
		width = 1
	}
	b.width = width
	b.deltas = make([]uint64, (uint(len(vals)-1)*width+63)/64)
	for i := 1; i < len(vals); i++ {
		d := uint64(int64(vals[i]) - int64(vals[i-1]) - minD)
		bitPos := uint(i-1) * width
		w, off := bitPos/64, bitPos%64
		b.deltas[w] |= d << off
		if off+width > 64 {
			b.deltas[w+1] |= d >> (64 - off)
		}
	}
	return b
}

// DeltaWidth returns the packed width vals would need, for the chooser.
func DeltaWidth(vals []int32) uint {
	if len(vals) < 2 {
		return 1
	}
	minD, maxD := int64(vals[1])-int64(vals[0]), int64(vals[1])-int64(vals[0])
	for i := 2; i < len(vals); i++ {
		d := int64(vals[i]) - int64(vals[i-1])
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	w := uint(bits.Len64(uint64(maxD - minD)))
	if w == 0 {
		w = 1
	}
	return w
}

// Len implements IntBlock.
func (b *DeltaBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *DeltaBlock) Encoding() Encoding { return Delta }

// MinMax implements IntBlock.
func (b *DeltaBlock) MinMax() (int32, int32) { return b.min, b.max }

// unpack decodes the next stretch of values, those from position pos on,
// into g and returns how many there are and the last of them: the first
// value alone at pos 0, then one 64-delta group per call (pos 1, 65, ...),
// prefix-summed in place onto v, the value before pos. The sums run modulo
// 2^32, which is exact because every value fits an int32. Every pass over
// the block is this loop:
//
//	for pos, k, v := 0, 0, int32(0); pos < b.n; pos += k {
//		k, v = b.unpack(pos, v, &g)
func (b *DeltaBlock) unpack(pos int, v int32, g *group) (int, int32) {
	if pos == 0 {
		g[0] = b.first
		return 1, b.first
	}
	k := min(groupLen, b.n-pos)
	unpack64(b.deltas[uint(pos/groupLen)*b.width:], b.width, uint32(b.minDelta), g[:k])
	for i, d := range g[:k] {
		v += d
		g[i] = v
	}
	return k, v
}

// AppendTo implements IntBlock.
func (b *DeltaBlock) AppendTo(dst []int32) []int32 {
	var g group
	for pos, k, v := 0, 0, int32(0); pos < b.n; pos += k {
		k, v = b.unpack(pos, v, &g)
		dst = append(dst, g[:k]...)
	}
	return dst
}

// Get implements IntBlock. Delta blocks have no random access; Get decodes a
// prefix, so executors should prefer AppendTo or Gather. It exists to keep
// the interface total.
func (b *DeltaBlock) Get(i int) int32 {
	var g group
	for pos, k, v := 0, 0, int32(0); ; pos += k {
		if k, v = b.unpack(pos, v, &g); i < pos+k {
			return g[i-pos]
		}
	}
}

// filter is the block's one selection loop: decode a stretch, test and pack
// it, OR one result word into bm.
func (b *DeltaBlock) filter(t groupTest, base int, bm *bitmap.Bitmap) {
	if t.kind == testNone {
		return
	}
	var g group
	for pos, k, v := 0, 0, int32(0); pos < b.n; pos += k {
		k, v = b.unpack(pos, v, &g)
		bm.OrWord(base+pos, t.pack(&g, k))
	}
}

// Filter implements IntBlock by streaming the decoded sequence.
func (b *DeltaBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) { b.filter(predTest(p), base, bm) }

// FilterSet implements IntBlock by streaming the decoded sequence through
// the membership test.
func (b *DeltaBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	b.filter(setTest(set, setMin), base, bm)
}

// FilterFunc implements IntBlock by streaming the decoded sequence.
func (b *DeltaBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	b.filter(groupTest{kind: testFunc, match: match}, base, bm)
}

// Gather implements IntBlock with one forward decode pass (idx is sorted),
// which stops at the last position asked for.
func (b *DeltaBlock) Gather(idx []int32, dst []int32) []int32 {
	var g group
	for pos, k, v := 0, 0, int32(0); len(idx) > 0 && pos < b.n; pos += k {
		k, v = b.unpack(pos, v, &g)
		for len(idx) > 0 && int(idx[0]) < pos+k {
			dst = append(dst, g[int(idx[0])-pos])
			idx = idx[1:]
		}
	}
	return dst
}

// AggSelect implements IntBlock with one forward streaming pass — the same
// cost as Filter, since delta encoding has no random access to exploit.
func (b *DeltaBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	var g group
	for pos, k, v := 0, 0, int32(0); pos < b.n; pos += k {
		k, v = b.unpack(pos, v, &g)
		if sel == nil {
			foldVals(g[:k], acc)
			continue
		}
		for i, x := range g[:k] {
			if sel.Get(base + pos + i) {
				acc.observe(x, 1)
			}
		}
	}
}

// GatherSelect implements IntBlock with one forward streaming pass.
func (b *DeltaBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	if sel == nil {
		return b.AppendTo(dst)
	}
	var g group
	for pos, k, v := 0, 0, int32(0); pos < b.n; pos += k {
		k, v = b.unpack(pos, v, &g)
		for i, x := range g[:k] {
			if sel.Get(base + pos + i) {
				dst = append(dst, x)
			}
		}
	}
	return dst
}

// CompressedBytes implements IntBlock.
func (b *DeltaBlock) CompressedBytes() int64 { return int64(len(b.deltas))*8 + 24 }
