package compress

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitmap"
)

// BitPackBlock stores values as fixed-width bit fields offset from the block
// minimum. A block of discounts 0..10 packs into 4 bits/value instead of 32.
//
// The fields live in an array of 64-bit words held as its little-endian
// bytes, which is exactly the block's wire form: a block decoded from a
// segment payload is a view over that payload, not a copy (DecodeBlock), and
// its words need not be aligned.
type BitPackBlock struct {
	words    []byte // packed 64-bit words, little-endian, 8 bytes each
	width    uint   // bits per value, 1..32
	n        int
	min, max int32
}

// NewBitPackBlock packs vals using the narrowest width that covers
// max(vals)-min(vals).
func NewBitPackBlock(vals []int32) *BitPackBlock {
	mn, mx := minMax(vals)
	span := uint64(int64(mx) - int64(mn))
	width := uint(bits.Len64(span))
	if width == 0 {
		width = 1
	}
	words := make([]byte, 0, 8*((uint(len(vals))*width+63)/64))
	// Fields accumulate in a register and each full word is stored once: cur
	// holds the pending bits, low first, and have (< 64) counts them.
	var cur uint64
	var have uint
	for _, v := range vals {
		u := uint64(int64(v) - int64(mn))
		cur |= u << have
		have += width
		if have >= 64 {
			words = binary.LittleEndian.AppendUint64(words, cur)
			have -= 64
			cur = u >> ((width - have) & 63)
		}
	}
	if have > 0 {
		words = binary.LittleEndian.AppendUint64(words, cur)
	}
	return &BitPackBlock{words: words, width: width, n: len(vals), min: mn, max: mx}
}

// field returns the i-th width-bit field of a packed word array: the
// random-access cursor (whole-block passes go a group at a time instead,
// through unpack64 or a generated routine).
// A field of at most 32 bits lies within the 8 bytes from its first byte, so
// one unaligned load serves; the load is clamped to the array's last 8
// bytes, so a field near the end never reads past it.
func field(words []byte, width uint, i int) uint64 {
	bitPos := uint(i) * width
	off := min(bitPos/8, uint(len(words))-8)
	return binary.LittleEndian.Uint64(words[off:off+8:off+8]) >> ((bitPos - 8*off) & 63) & (1<<(width&63) - 1)
}

func (b *BitPackBlock) get(i int) uint64 { return field(b.words, b.width, i) }

// Len implements IntBlock.
func (b *BitPackBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *BitPackBlock) Encoding() Encoding { return BitPack }

// MinMax implements IntBlock.
func (b *BitPackBlock) MinMax() (int32, int32) { return b.min, b.max }

// Width returns the bits used per value (diagnostics).
func (b *BitPackBlock) Width() uint { return b.width }

// unpack decodes the group of values starting at pos (a multiple of 64) into
// g and returns how many of its 64 slots the block fills.
func (b *BitPackBlock) unpack(pos int, g *group) int {
	k := min(groupLen, b.n-pos)
	src := b.words[uint(pos/groupLen)*b.width*8:]
	if len(src) >= groupBytes {
		unpack64((*[groupBytes]byte)(src), b.width, uint32(b.min), g[:k])
		return k
	}
	// One of the block's last few groups: fewer bytes remain than the
	// widest group spans, so unpack from a zero-padded copy.
	var tail [groupBytes]byte
	copy(tail[:], src)
	unpack64(&tail, b.width, uint32(b.min), g[:k])
	return k
}

// AppendTo implements IntBlock.
func (b *BitPackBlock) AppendTo(dst []int32) []int32 {
	var g group
	for pos := 0; pos < b.n; pos += groupLen {
		dst = append(dst, g[:b.unpack(pos, &g)]...)
	}
	return dst
}

// Get implements IntBlock.
func (b *BitPackBlock) Get(i int) int32 { return int32(int64(b.min) + int64(b.get(i))) }

// filter is the block's one selection loop: unpack a group, test and pack
// it, OR one result word into bm. An interval is first moved into code
// space and clamped to the block's codes: one that misses them all returns
// at once, and each full group is tested in place by its width's generated
// routine (unpack_gen.go); only the tail group is unpacked.
func (b *BitPackBlock) filter(t groupTest, base int, bm *bitmap.Bitmap) {
	if t.kind == testNone {
		return
	}
	pos := 0
	if t.kind == testInterval {
		lo := int64(int32(t.lo)) - int64(b.min)
		clo, chi := max(lo, 0), min(lo+int64(t.span), 1<<b.width-1)
		if clo > chi {
			return
		}
		for src := b.words; pos+groupLen <= b.n; pos += groupLen {
			bm.OrWord(base+pos, intervalGroup(src, b.width, uint32(clo), uint64(chi-clo)))
			src = src[b.width*8:]
		}
	}
	var g group
	for ; pos < b.n; pos += groupLen {
		bm.OrWord(base+pos, t.pack(&g, b.unpack(pos, &g)))
	}
}

// Filter implements IntBlock.
func (b *BitPackBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) { b.filter(predTest(p), base, bm) }

// setTableRatio is the table rule: FilterSet builds a membership table of
// 2^width bytes only while that is at most setTableRatio bytes per value of
// the block (and width has a generated routine, maxSetWidth). Building
// costs a fraction of a nanosecond per byte, so the table never costs more
// than the per-value set test it replaces; a short or a very wide block
// keeps that test.
const setTableRatio = 4

// FilterSet implements IntBlock. Under the table rule the set window is
// first turned into one byte per code of the block's width — 1 for a
// member — so that each group, the tail included, is tested in place by its
// width's generated routine (unpack_gen.go): one table load per value, no
// range test and no branch.
func (b *BitPackBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	if b.width > maxSetWidth || int64(1)<<b.width > setTableRatio*int64(b.n) {
		b.filter(setTest(set, setMin), base, bm)
		return
	}
	scratch := setTables.Get().(*[]byte)
	if tbl := b.memberTable(scratch, set, setMin); tbl != nil {
		for pos, src := 0, b.words; pos < b.n; pos += groupLen {
			if k := b.n - pos; k < groupLen {
				// The tail group: its codes are read from a zero-padded
				// copy and the slots past the block masked off.
				var tail [groupBytes]byte
				copy(tail[:], src)
				bm.OrWord(base+pos, setGroup(tail[:], b.width, tbl)&lowBits(k))
				break
			}
			bm.OrWord(base+pos, setGroup(src, b.width, tbl))
			src = src[b.width*8:]
		}
	}
	setTables.Put(scratch)
}

// setTables holds FilterSet's table scratch, reused across calls and
// goroutines.
var setTables = sync.Pool{New: func() any { return new([]byte) }}

// memberTable fills *scratch (growing it if need be) with the membership
// table of every code the block's width can hold and returns it: byte c is
// 1 when the value min+c is in the dense set anchored at setMin. It returns
// nil when no code is. The set window is copied 64 codes at a time, each
// byte of set bits spread into 8 table bytes by one lookup, into 64 bytes
// of slack past the table so the last copy needs no bound.
func (b *BitPackBlock) memberTable(scratch *[]byte, set *bitmap.Bitmap, setMin int32) []byte {
	// Code c is set bit c+off; the codes in [lo, hi) are inside the window.
	size := int64(1) << b.width
	off := int64(b.min) - int64(setMin)
	lo, hi := max(-off, 0), min(int64(set.Len())-off, size)
	if lo >= hi {
		return nil
	}
	if int64(cap(*scratch)) < size+64 {
		*scratch = make([]byte, size+64)
	}
	buf, words := (*scratch)[:size+64], set.Words()
	clear(buf[:lo])
	clear(buf[hi:size])
	for c := lo; c < hi; c += 64 {
		j := uint64(c + off)
		k, s := j/64, j%64
		w := words[k] >> s
		if s != 0 && k+1 < uint64(len(words)) {
			w |= words[k+1] << (64 - s)
		}
		if hi-c < 64 {
			w &= 1<<uint(hi-c) - 1
		}
		dst := (*[64]byte)(buf[c:])
		binary.LittleEndian.PutUint64(dst[0:], spreadBytes[byte(w)])
		binary.LittleEndian.PutUint64(dst[8:], spreadBytes[byte(w>>8)])
		binary.LittleEndian.PutUint64(dst[16:], spreadBytes[byte(w>>16)])
		binary.LittleEndian.PutUint64(dst[24:], spreadBytes[byte(w>>24)])
		binary.LittleEndian.PutUint64(dst[32:], spreadBytes[byte(w>>32)])
		binary.LittleEndian.PutUint64(dst[40:], spreadBytes[byte(w>>40)])
		binary.LittleEndian.PutUint64(dst[48:], spreadBytes[byte(w>>48)])
		binary.LittleEndian.PutUint64(dst[56:], spreadBytes[byte(w>>56)])
	}
	return buf[:size]
}

// spreadBytes[b] holds the 8 bits of b as 8 bytes of 0 or 1, bit i in byte
// i.
var spreadBytes = func() (t [256]uint64) {
	for b := range t {
		for i := range 8 {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// FilterFunc implements IntBlock: one callback per value.
func (b *BitPackBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	b.filter(groupTest{kind: testFunc, match: match}, base, bm)
}

// Gather implements IntBlock.
func (b *BitPackBlock) Gather(idx []int32, dst []int32) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	// Locals, so the stores to dst cannot force a reload of the fields.
	words, width, add := b.words, b.width, uint32(b.min)
	for k, i := range idx {
		dst[n+k] = int32(uint32(field(words, width, int(i))) + add)
	}
	return dst
}

// AggSelect implements IntBlock. A full block folds group by group; a
// partial selection walks the selection words directly — one trailing-zeros
// step per selected position, O(selected) random accesses (fields are
// fixed-width, so position i is bit i*width).
func (b *BitPackBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	if sel == nil {
		var g group
		for pos := 0; pos < b.n; pos += groupLen {
			foldVals(g[:b.unpack(pos, &g)], acc)
		}
		return
	}
	// Codes accumulate in code space and widen once at the end
	// (sum = count*min + sum(codes)).
	var codeSum uint64
	var count int64
	cMin, cMax := uint64(1)<<63, uint64(0)
	for pos := range selWords(sel, base, b.n) {
		c := b.get(pos)
		codeSum += c
		count++
		if c < cMin {
			cMin = c
		}
		if c > cMax {
			cMax = c
		}
	}
	if count == 0 {
		return
	}
	acc.Sum += count*int64(b.min) + int64(codeSum)
	acc.Count += count
	if v := int64(b.min) + int64(cMin); v < acc.Min {
		acc.Min = v
	}
	if v := int64(b.min) + int64(cMax); v > acc.Max {
		acc.Max = v
	}
}

// GatherSelect implements IntBlock: full blocks decode group by group,
// partial selections hop set bits with the random-access cursor.
func (b *BitPackBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	if sel == nil {
		return b.AppendTo(dst)
	}
	for pos := range selWords(sel, base, b.n) {
		dst = append(dst, int32(int64(b.min)+int64(b.get(pos))))
	}
	return dst
}

// CompressedBytes implements IntBlock.
func (b *BitPackBlock) CompressedBytes() int64 { return int64(len(b.words)) + 16 }
