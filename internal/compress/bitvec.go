package compress

import "repro/internal/bitmap"

// maxBitVecValues caps the cardinality at which bit-vector encoding makes
// sense (one bitmap per distinct value).
const maxBitVecValues = 32

// BitVecBlock is bit-vector encoding from the C-Store compression work
// (Abadi, Madden, Ferreira, SIGMOD 2006): for each distinct value the block
// stores one bitmap marking the positions holding that value. Predicate
// application is "free" — the result is the word-level OR of the bitmaps of
// matching values, with no per-position work at all — at the cost of k bits
// per value of storage. It suits very-low-cardinality unsorted columns.
type BitVecBlock struct {
	vals     []int32 // distinct values, ascending
	maps     []*bitmap.Bitmap
	n        int
	min, max int32
}

// NewBitVecBlock encodes vals, which must have at most maxBitVecValues
// distinct values (callers check via DistinctSmall); it panics otherwise
// since that is a chooser bug, not a data condition.
func NewBitVecBlock(vals []int32) *BitVecBlock {
	b := &BitVecBlock{n: len(vals)}
	b.min, b.max = minMax(vals)
	index := make(map[int32]int, maxBitVecValues)
	for _, v := range vals {
		if _, ok := index[v]; !ok {
			if len(b.vals) >= maxBitVecValues {
				panic("compress: too many distinct values for bit-vector encoding")
			}
			index[v] = 0 // placeholder; indexes assigned after sort
			b.vals = append(b.vals, v)
		}
	}
	// Ascending value order keeps decode deterministic and lets interval
	// predicates skip early.
	sortInt32(b.vals)
	for i, v := range b.vals {
		index[v] = i
	}
	b.maps = make([]*bitmap.Bitmap, len(b.vals))
	for i := range b.maps {
		b.maps[i] = bitmap.New(len(vals))
	}
	for pos, v := range vals {
		b.maps[index[v]].Set(pos)
	}
	return b
}

// DistinctSmall reports whether vals has at most limit distinct values,
// scanning with early exit.
func DistinctSmall(vals []int32, limit int) bool {
	seen := make(map[int32]struct{}, limit+1)
	for _, v := range vals {
		seen[v] = struct{}{}
		if len(seen) > limit {
			return false
		}
	}
	return true
}

func sortInt32(s []int32) {
	// Insertion sort: cardinality is tiny by construction.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Len implements IntBlock.
func (b *BitVecBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *BitVecBlock) Encoding() Encoding { return BitVec }

// MinMax implements IntBlock.
func (b *BitVecBlock) MinMax() (int32, int32) { return b.min, b.max }

// Cardinality returns the number of distinct values (diagnostics).
func (b *BitVecBlock) Cardinality() int { return len(b.vals) }

// AppendTo implements IntBlock.
func (b *BitVecBlock) AppendTo(dst []int32) []int32 {
	out := dst
	start := len(dst)
	out = append(out, make([]int32, b.n)...)
	for vi, bm := range b.maps {
		v := b.vals[vi]
		bm.ForEach(func(pos int) { out[start+pos] = v })
	}
	return out
}

// Get implements IntBlock by probing each value bitmap (k is small).
func (b *BitVecBlock) Get(i int) int32 {
	for vi, bm := range b.maps {
		if bm.Get(i) {
			return b.vals[vi]
		}
	}
	return 0
}

// Filter implements IntBlock: the result is the OR of the bitmaps of
// matching values — zero per-position work. base must be 64-bit aligned
// (column blocks are).
func (b *BitVecBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	if base%64 != 0 {
		// Fallback for unaligned callers (not used by colstore).
		for vi, vm := range b.maps {
			if p.Match(b.vals[vi]) {
				vm.ForEach(func(pos int) { bm.Set(base + pos) })
			}
		}
		return
	}
	for vi, vm := range b.maps {
		if p.Match(b.vals[vi]) {
			bm.OrWordsAt(base/64, vm)
		}
	}
}

// FilterSet implements IntBlock: one membership bit test per distinct value,
// then a word-level OR of the bitmaps of member values — no per-position
// work at all.
func (b *BitVecBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	for vi, vm := range b.maps {
		if !setContains(set, setMin, b.vals[vi]) {
			continue
		}
		if base%64 == 0 {
			bm.OrWordsAt(base/64, vm)
		} else {
			vm.ForEach(func(pos int) { bm.Set(base + pos) })
		}
	}
}

// Gather implements IntBlock.
func (b *BitVecBlock) Gather(idx []int32, dst []int32) []int32 {
	for _, i := range idx {
		dst = append(dst, b.Get(int(i)))
	}
	return dst
}

// AggSelect implements IntBlock: for each distinct value, an AND-popcount
// of its position bitmap against the selection gives the selected
// occurrence count in one word-level pass — the "count AND words per
// distinct value" kernel.
func (b *BitVecBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	for vi, vm := range b.maps {
		cnt := int64(vm.Count())
		if sel != nil {
			cnt = int64(sel.AndCountAt(vm, base))
		}
		acc.observe(b.vals[vi], cnt)
	}
}

// GatherSelect implements IntBlock: selected positions of each value bitmap
// scatter that value into a dense output, preserving position order without
// per-position value probes.
func (b *BitVecBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	// Count selected positions first so the output region can be filled by
	// per-value scatter in one allocation.
	total := 0
	if sel == nil {
		total = b.n
	} else {
		total = sel.CountRange(base, base+b.n)
	}
	if total == 0 {
		return dst
	}
	if sel == nil {
		start := len(dst)
		dst = append(dst, make([]int32, total)...)
		for vi, vm := range b.maps {
			v := b.vals[vi]
			vm.ForEach(func(pos int) { dst[start+pos] = v })
		}
		return dst
	}
	// Walk the selected positions in order; each value probe is at most k
	// (<= 32) bitmap tests, so cost scales with the selection, not the
	// block.
	end := base + b.n
	for pos := sel.NextSet(base); pos >= 0 && pos < end; pos = sel.NextSet(pos + 1) {
		dst = append(dst, b.Get(pos-base))
	}
	return dst
}

// FilterFunc implements IntBlock: one callback per distinct value, then a
// word-level OR of member bitmaps (mirrors FilterSet).
func (b *BitVecBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	for vi, vm := range b.maps {
		if !match(b.vals[vi]) {
			continue
		}
		if base%64 == 0 {
			bm.OrWordsAt(base/64, vm)
		} else {
			vm.ForEach(func(pos int) { bm.Set(base + pos) })
		}
	}
}

// CompressedBytes implements IntBlock: k bitmaps of n bits plus the value
// directory.
func (b *BitVecBlock) CompressedBytes() int64 {
	var bytes int64
	for _, bm := range b.maps {
		bytes += bm.SizeBytes()
	}
	return bytes + int64(len(b.vals))*4
}
