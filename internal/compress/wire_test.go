package compress

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitmap"
)

// wireShapes generates value distributions that exercise every encoding the
// chooser can pick plus every constructor directly.
func wireShapes() map[string][]int32 {
	rng := rand.New(rand.NewSource(42))
	sorted := make([]int32, 5000)
	for i := range sorted {
		sorted[i] = int32(i / 7)
	}
	monotonic := make([]int32, 5000)
	v := int32(-2_000_000_000)
	for i := range monotonic {
		v += rng.Int31n(1000)
		monotonic[i] = v
	}
	lowCard := make([]int32, 5000)
	for i := range lowCard {
		lowCard[i] = []int32{-3, 0, 7, 1 << 20}[rng.Intn(4)]
	}
	narrow := make([]int32, 5000)
	for i := range narrow {
		narrow[i] = 100_000 + rng.Int31n(37)
	}
	random := make([]int32, 5000)
	for i := range random {
		random[i] = rng.Int31() - rng.Int31()
	}
	extremes := []int32{-1 << 31, 1<<31 - 1, 0, -1, 1, -1 << 31, 1<<31 - 1}
	return map[string][]int32{
		"sorted-runs": sorted,
		"monotonic":   monotonic,
		"low-card":    lowCard,
		"narrow":      narrow,
		"random":      random,
		"extremes":    extremes,
		"single":      {12345},
		"constant":    {7, 7, 7, 7, 7, 7, 7, 7},
	}
}

func checkWireRoundTrip(t *testing.T, label string, blk IntBlock, vals []int32) {
	t.Helper()
	payload := AppendBlock(blk, nil)
	got, err := DecodeBlock(blk.Encoding(), blk.Len(), payload)
	if err != nil {
		t.Fatalf("%s: DecodeBlock(%v): %v", label, blk.Encoding(), err)
	}
	if got.Encoding() != blk.Encoding() || got.Len() != blk.Len() {
		t.Fatalf("%s: decoded to %v/%d, want %v/%d", label, got.Encoding(), got.Len(), blk.Encoding(), blk.Len())
	}
	gmn, gmx := got.MinMax()
	wmn, wmx := blk.MinMax()
	if gmn != wmn || gmx != wmx {
		t.Fatalf("%s: min/max [%d,%d] want [%d,%d]", label, gmn, gmx, wmn, wmx)
	}
	if got.CompressedBytes() != blk.CompressedBytes() {
		t.Errorf("%s: CompressedBytes %d want %d", label, got.CompressedBytes(), blk.CompressedBytes())
	}
	dec := got.AppendTo(nil)
	for i, v := range vals {
		if dec[i] != v {
			t.Fatalf("%s: value %d decoded %d want %d", label, i, dec[i], v)
		}
	}
	// Behavioural spot checks: a filter and a gather must agree with the
	// original block (the executor runs both on pool-loaded blocks).
	p := Between(vals[0]-1, vals[0]+1)
	a, b := bitmap.New(len(vals)), bitmap.New(len(vals))
	blk.Filter(p, 0, a)
	got.Filter(p, 0, b)
	if a.Count() != b.Count() {
		t.Fatalf("%s: filter count %d want %d", label, b.Count(), a.Count())
	}
	idx := []int32{0, int32(len(vals) / 2), int32(len(vals) - 1)}
	ga, gb := blk.Gather(idx, nil), got.Gather(idx, nil)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("%s: gather[%d] %d want %d", label, i, gb[i], ga[i])
		}
	}
}

// TestWireRoundTrip serializes and reconstructs every encoding over several
// value shapes, requiring bit-identical decode, statistics, size accounting,
// and operator behaviour.
func TestWireRoundTrip(t *testing.T) {
	for name, vals := range wireShapes() {
		checkWireRoundTrip(t, name+"/chosen", Choose(vals), vals)
		checkWireRoundTrip(t, name+"/plain", NewPlainBlock(vals), vals)
		checkWireRoundTrip(t, name+"/rle", NewRLEBlock(vals), vals)
		checkWireRoundTrip(t, name+"/bitpack", NewBitPackBlock(vals), vals)
	}
}

// retiredPayloads are the wire payloads of {1,2,3,4,5,5,5,9} under the two
// encodings retired in PR 24, byte for byte as the last build that had them
// wrote them (and decoded them without error): what an old store's tag-3 or
// tag-4 segment holds.
var retiredPayloads = map[Encoding][]byte{
	3: []byte("\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x09\x00\x00\x00" +
		"\x01\x00\x00\x00\x49\x02\x10\x00\x00\x00\x00\x00"), // delta: first, width, minDelta, min, max, nwords, words
	4: []byte("\x06\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00\x09\x00\x00\x00" + // bitvec: card, values
		"\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" + // one (nwords, words) bitmap per value
		"\x01\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00\x70\x00\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00"),
}

// TestWireRejectsMalformed feeds corrupted payloads to every decoder; all
// must fail loudly rather than build a block over bad state. So must a
// well-formed payload of a retired encoding, with an error that says what
// to do about it.
func TestWireRejectsMalformed(t *testing.T) {
	vals := []int32{1, 2, 3, 4, 5, 5, 5, 9}
	for _, blk := range []IntBlock{
		NewPlainBlock(vals), NewRLEBlock(vals), NewBitPackBlock(vals),
	} {
		payload := AppendBlock(blk, nil)
		if _, err := DecodeBlock(blk.Encoding(), blk.Len(), payload[:len(payload)-1]); err == nil {
			t.Errorf("%v: truncated payload accepted", blk.Encoding())
		}
		if _, err := DecodeBlock(blk.Encoding(), blk.Len(), append(payload, 0xCC)); err == nil {
			t.Errorf("%v: oversized payload accepted", blk.Encoding())
		}
		// +64 keeps the mismatch visible to every encoding's structural
		// checks (bit-packed payloads are sized in 64-bit words, so a +1
		// row miscount can land in the same word count and only the CRC
		// layer above can catch it).
		if _, err := DecodeBlock(blk.Encoding(), blk.Len()+64, payload); err == nil {
			t.Errorf("%v: wrong row count accepted", blk.Encoding())
		}
	}
	if _, err := DecodeBlock(Encoding(99), 8, nil); err == nil {
		t.Error("unknown encoding accepted")
	}
	for enc, payload := range retiredPayloads {
		_, err := DecodeBlock(enc, len(vals), payload)
		if err == nil || !strings.Contains(err.Error(), "retired encoding") || !strings.Contains(err.Error(), "ssb-gen -out") {
			t.Errorf("tag %d: a retired encoding's payload must be refused with the regenerate hint, got %v", enc, err)
		}
	}
}

// FuzzWireDecode hammers DecodeBlock with arbitrary bytes: it must never
// panic, and whenever it succeeds the block must decode exactly the declared
// number of rows.
func FuzzWireDecode(f *testing.F) {
	for _, vals := range wireShapes() {
		blk := Choose(vals)
		f.Add(uint8(blk.Encoding()), uint16(blk.Len()), AppendBlock(blk, nil))
	}
	for enc, payload := range retiredPayloads {
		f.Add(uint8(enc), uint16(8), payload)
	}
	f.Fuzz(func(t *testing.T, enc uint8, rows uint16, data []byte) {
		blk, err := DecodeBlock(Encoding(enc), int(rows), data)
		if err != nil {
			return
		}
		if got := len(blk.AppendTo(nil)); got != int(rows) {
			t.Fatalf("decoded %d rows, declared %d", got, rows)
		}
	})
}
