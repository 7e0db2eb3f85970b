package compress

import (
	"math/rand"
	"testing"
)

// TestDecodeBlockViewsPayload pins the one-copy miss path: a bit-packed
// block decoded from its wire payload is a view over the payload's packed
// words (byte 13 on, so unaligned), bounded so that nothing can be appended
// into the bytes after them, and it agrees with the block it was written
// from — including a short final group that ends flush with the payload,
// where a load that overran the last field would fault.
func TestDecodeBlockViewsPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 63, 65, 4097} {
		for _, width := range []uint{1, 7, 18, 31, 32} {
			vals, _, _ := widthVals(rng, n, width, 0)
			src := NewBitPackBlock(vals)
			wire := AppendBlock(src, nil)
			wire = wire[:len(wire):len(wire)]
			blk, err := DecodeBlock(BitPack, n, wire)
			if err != nil {
				t.Fatal(err)
			}
			bp := blk.(*BitPackBlock)
			if &bp.words[0] != &wire[13] || len(bp.words) != len(wire)-13 || cap(bp.words) != len(bp.words) {
				t.Fatalf("n=%d width=%d: words are not the payload's bytes 13..%d", n, width, len(wire))
			}
			checkDecoders(t, "view", blk, vals)
		}
	}
}
