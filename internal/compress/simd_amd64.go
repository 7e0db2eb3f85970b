package compress

import "repro/internal/bitmap"

// maxAVX2Width is the widest field that, with its bit offset, fits a lane.
const maxAVX2Width = 25

// avx2Width holds a width's constants for intervalAVX2, whose step tests the
// 8 fields in width bytes, 4 from a 16-byte load at its first byte and 4 from
// one width/2 bytes on: shuf puts field f's 4 bytes in 32-bit lane f.
type avx2Width struct{ shuf, shift, mask [8]uint32 }

var avx2Widths = func() (t [maxAVX2Width + 1]avx2Width) {
	for w := 1; w <= maxAVX2Width; w++ {
		for f := range 8 {
			bit := f*w - f/4*8*(w/2) // from the start of its lane's load
			t[w].shuf[f], t[w].shift[f], t[w].mask[f] = uint32(bit/8)*0x01010101+0x03020100, uint32(bit%8), 1<<w-1
		}
	}
	return t
}()

// useAVX2 is set when the CPU and the OS support AVX2; tests clear it.
var useAVX2 = hasAVX2()

func hasAVX2() bool

// intervalAVX2 ORs into dst[g] the test of group g of the groups (> 0) packed
// at src against [lo, lo+span]. It reads to byte 8w(groups-1)+7w+w/2+16.
//
//go:noescape
func intervalAVX2(src *byte, groups int, width uint, dst *uint64, k *avx2Width, lo, span uint32)

// intervalSIMD tests the block's leading full groups against the code
// interval [lo, lo+span], ORing group g's word into bm at base+64g, and
// returns how many it took: those whose loads end inside the words.
func (b *BitPackBlock) intervalSIMD(lo, span uint32, base int, bm *bitmap.Bitmap) int {
	w := int(b.width)
	reach := 7*w + w/2 + 16 // past a group's start, where its last load ends
	if !useAVX2 || w > maxAVX2Width || len(b.words) < reach || b.n < groupLen {
		return 0
	}
	groups, k := min(b.n/groupLen, (len(b.words)-reach)/(8*w)+1), &avx2Widths[w]
	if base%groupLen == 0 {
		words := bm.Words()
		_ = words[base/groupLen+groups-1] // the bound OrWord checks
		intervalAVX2(&b.words[0], groups, b.width, &words[base/groupLen], k, lo, span)
		return groups
	}
	var buf [16]uint64 // an unaligned base (a delta morsel's) takes OrWord
	for g := 0; g < groups; g += len(buf) {
		c := min(groups-g, len(buf))
		clear(buf[:c])
		intervalAVX2(&b.words[8*w*g], c, b.width, &buf[0], k, lo, span)
		for i, r := range buf[:c] {
			bm.OrWord(base+(g+i)*groupLen, r)
		}
	}
	return groups
}
