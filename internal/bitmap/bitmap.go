// Package bitmap provides a dense, fixed-length bitmap used throughout the
// column executor as one of the position-list representations described in
// Section 5.2 of the paper ("a bit string where a 1 in the ith bit indicates
// that the ith value passed the predicate"), and by the row engine as the
// backing store for bitmap indexes.
//
// The implementation is a plain []uint64 with word-wise boolean algebra so
// that intersecting predicate results (the paper's "fast bitmap operations")
// costs one AND per 64 positions.
package bitmap

import "math/bits"

const wordBits = 64

// Bitmap is a fixed-length sequence of bits. The zero value is an empty
// bitmap of length 0; use New to create one with capacity for n positions.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bitmap able to hold n bits, all initially zero.
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a bitmap of length n with every bit set.
func NewFull(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// clearTail zeroes bits beyond n in the last word so Count and And/Or stay
// exact after whole-word operations.
func (b *Bitmap) clearTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Len returns the number of bit positions in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i/wordBits] |= 1 << uint(i%wordBits) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i/wordBits] &^= 1 << uint(i%wordBits) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetRange sets every bit in [start, end).
func (b *Bitmap) SetRange(start, end int) {
	if start >= end {
		return
	}
	sw, ew := start/wordBits, (end-1)/wordBits
	sMask := ^uint64(0) << uint(start%wordBits)
	eMask := ^uint64(0) >> uint(wordBits-1-(end-1)%wordBits)
	if sw == ew {
		b.words[sw] |= sMask & eMask
		return
	}
	b.words[sw] |= sMask
	for w := sw + 1; w < ew; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[ew] |= eMask
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And replaces b with b AND other. Both bitmaps must have the same length.
func (b *Bitmap) And(other *Bitmap) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// AndNot replaces b with b AND NOT other.
func (b *Bitmap) AndNot(other *Bitmap) {
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Or replaces b with b OR other. Both bitmaps must have the same length.
func (b *Bitmap) Or(other *Bitmap) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	b.clearTail()
}

// Not inverts every bit in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clearTail()
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Grow returns a copy of b extended to n bits; the added bits are zero.
// The executor's deletion vectors use it when the sealed store grows: the
// old snapshot keeps serving in-flight queries while the copy covers the
// new rows. n must be >= b.Len().
func (b *Bitmap) Grow(n int) *Bitmap {
	if n < b.n {
		panic("bitmap: Grow to a shorter length")
	}
	nb := New(n)
	copy(nb.words, b.words)
	return nb
}

// Resize sets the length to n bits within the capacity the bitmap was
// created with, so a scratch bitmap sized for the largest block costs a
// short block only its own words. The contents are unspecified until the
// next Reset.
func (b *Bitmap) Resize(n int) {
	b.words, b.n = b.words[:(n+wordBits-1)/wordBits], n
}

// Reset clears all bits, keeping the length.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach invokes fn with each set position in ascending order.
func (b *Bitmap) ForEach(fn func(pos int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// AppendPositions appends each set position to dst and returns it. It is the
// bridge from bitmap representation to explicit position lists.
func (b *Bitmap) AppendPositions(dst []int32) []int32 {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, int32(base+tz))
			w &= w - 1
		}
	}
	return dst
}

// NextSet returns the first set position >= from, or -1 when none exists.
func (b *Bitmap) NextSet(from int) int {
	if from >= b.n {
		return -1
	}
	wi := from / wordBits
	w := b.words[wi] >> uint(from%wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// SizeBytes reports the in-memory size of the bit data, used by the I/O
// accounting layer when bitmaps are materialized by index-only plans.
func (b *Bitmap) SizeBytes() int64 { return int64(len(b.words) * 8) }

// Words exposes the backing word slice: the compressed-block kernels walk
// selections and dense sets word by word. The slice is live: callers must
// not mutate it.
func (b *Bitmap) Words() []uint64 { return b.words }

// FromWords reconstructs a bitmap of length n over the given backing words
// (the inverse of Words). The slice is retained. Bits beyond n are cleared so
// Count stays exact.
func FromWords(words []uint64, n int) *Bitmap {
	b := &Bitmap{words: words, n: n}
	b.clearTail()
	return b
}

// CountRange returns the number of set bits in [start, end). It is the
// popcount analogue of SetRange: whole interior words cost one OnesCount64
// each, so an RLE aggregation kernel can price a run against a selection
// bitmap without visiting individual positions.
func (b *Bitmap) CountRange(start, end int) int {
	if start < 0 {
		start = 0
	}
	if end > b.n {
		end = b.n
	}
	if start >= end {
		return 0
	}
	sw, ew := start/wordBits, (end-1)/wordBits
	sMask := ^uint64(0) << uint(start%wordBits)
	eMask := ^uint64(0) >> uint(wordBits-1-(end-1)%wordBits)
	if sw == ew {
		return bits.OnesCount64(b.words[sw] & sMask & eMask)
	}
	c := bits.OnesCount64(b.words[sw] & sMask)
	for w := sw + 1; w < ew; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	return c + bits.OnesCount64(b.words[ew]&eMask)
}

// AndCountAt returns the popcount of b AND other, where other is shifted
// left by off bits relative to b (bit i of other aligns with bit off+i of
// b). Neither bitmap is modified. It was the bit-vector aggregation kernel's
// primitive; with that encoding retired (PR 24) its only remaining caller is
// the frozen benchmark ladder's bitmap.and_count_ns_per_kbit rung, so the
// next benchmark-archetype PR can drop the rung and this method together.
// Arbitrary (non-word-aligned) offsets are handled by stitching adjacent
// words of other.
func (b *Bitmap) AndCountAt(other *Bitmap, off int) int {
	if off%wordBits == 0 {
		wo := off / wordBits
		c := 0
		for i, w := range other.words {
			if wo+i >= len(b.words) {
				break
			}
			c += bits.OnesCount64(b.words[wo+i] & w)
		}
		return c
	}
	c := 0
	for i := range other.words {
		lo := off + i*wordBits
		w := uint64(0)
		if wi := lo / wordBits; wi < len(b.words) {
			w = b.words[wi] >> uint(lo%wordBits)
			if wi+1 < len(b.words) {
				w |= b.words[wi+1] << uint(wordBits-lo%wordBits)
			}
		}
		c += bits.OnesCount64(w & other.words[i])
	}
	return c
}

// OrWord ORs the 64 bits of w into positions [pos, pos+64): one store when
// pos is word-aligned, a shifted two-word OR otherwise. It is how the
// compressed-block filter kernels deliver a group of 64 test results. No
// other position is touched, so bits of w that would land past the end of
// the bitmap must be zero.
func (b *Bitmap) OrWord(pos int, w uint64) {
	i, off := pos/wordBits, uint(pos%wordBits)
	b.words[i] |= w << off
	if hi := w >> (wordBits - off); hi != 0 { // off == 0 shifts everything out
		b.words[i+1] |= hi
	}
}

// AndNotWordsFrom clears, in b, every bit that is set in other, treating
// other as starting at word offset wordOff of b. The fused executor uses it
// to mask a block-local selection bitmap against the column-global deletion
// vector; fact blocks are 64-bit aligned by construction so the offset is
// always whole words.
func (b *Bitmap) AndNotWordsFrom(other *Bitmap, wordOff int) {
	for i := range b.words {
		if wordOff+i >= len(other.words) {
			return
		}
		b.words[i] &^= other.words[wordOff+i]
	}
}
