package compress

import "repro/internal/bitmap"

// Every whole-block pass over a value-at-a-time encoding (plain, bit-packed)
// works on groups of 64 values: decoded onto the stack, tested without
// a data-dependent branch into one 64-bit result word, delivered with one
// Bitmap.OrWord. The cost of a selection is then the bytes read and the
// unpack, whatever the selectivity. The commonest selections on a
// bit-packed block skip the stack: its width's generated routines
// (unpack_gen.go) test the packed codes in place, against an interval for
// each full group, and against a membership table for every group of a
// dense set (BitPackBlock.FilterSet: 0.6–1.2 ns per value at widths 4–15,
// against 3–5 for the per-value set test in pack). unpack64 serves an
// interval's tail group, every other test and the decoders, and is the
// routines' oracle.
const groupLen = 64

type group = [groupLen]int32

// lowBits returns a word with the low k bits set, 0 <= k <= 64.
func lowBits(k int) uint64 { return ^uint64(0) >> uint(groupLen-k) }

// groupBytes is the most bytes one group of packed fields spans: 64 fields
// of at most 32 bits.
const groupBytes = groupLen * 32 / 8

// unpack64 decodes len(out) <= 64 consecutive width-bit fields of words (a
// little-endian array of 64-bit words, held as bytes), starting at bit 0 of
// its first word, adding add to each modulo 2^32. A 64-field group is
// exactly width words, so every group of a packed array starts on a word
// boundary. Words are consumed through a bit buffer — one shift per field, a
// refill branch that depends on width alone — and never past the last field.
// width and the buffer's fill are always below 64, and a word's offset below
// groupBytes; the masks only tell the compiler that, so it emits plain
// shifts and loads without bounds checks.
func unpack64(words *[groupBytes]byte, width uint, add uint32, out []int32) {
	mask := uint64(1)<<width - 1
	var cur uint64 // unconsumed bits of the words loaded so far, low first
	var have uint  // how many
	var off uint   // byte offset of the next word
	for i := range out {
		if have >= width {
			out[i] = int32(uint32(cur&mask) + add)
			cur >>= width & 63
			have -= width
			continue
		}
		o := off & (groupBytes - 8)
		w := uint64(words[o]) | uint64(words[o+1])<<8 | uint64(words[o+2])<<16 | uint64(words[o+3])<<24 |
			uint64(words[o+4])<<32 | uint64(words[o+5])<<40 | uint64(words[o+6])<<48 | uint64(words[o+7])<<56
		off += 8
		out[i] = int32(uint32((cur|w<<(have&63))&mask) + add)
		cur = w >> ((width - have) & 63)
		have += 64 - width
	}
}

// groupTest is a selection test compiled once per kernel call; pack applies
// it to a group. The zero value matches nothing.
type groupTest struct {
	kind uint8
	// testInterval: uint32(v)-lo <= span.
	lo, span uint32
	// testSet: bit v-setMin of set, for v-setMin < setLen.
	set    []uint64
	setMin int64
	setLen uint64
	pred   Pred             // testPred: a predicate that is not one interval
	match  func(int32) bool // testFunc
}

const (
	testNone uint8 = iota
	testInterval
	testSet
	testPred
	testFunc
)

// predTest compiles p. An interval is one unsigned compare per value; it
// matches nothing when hi < lo (an empty IN, BETWEEN 9 AND 3), which the
// wrapped compare alone would read as everything.
func predTest(p Pred) groupTest {
	lo, hi, ok := p.Bounds()
	switch {
	case !ok:
		return groupTest{kind: testPred, pred: p}
	case hi < lo:
		return groupTest{}
	default:
		return groupTest{kind: testInterval, lo: uint32(lo), span: uint32(hi) - uint32(lo)}
	}
}

// setTest compiles membership in the dense set anchored at setMin.
func setTest(set *bitmap.Bitmap, setMin int32) groupTest {
	if set.Len() == 0 {
		return groupTest{}
	}
	return groupTest{kind: testSet, set: set.Words(), setMin: int64(setMin), setLen: uint64(set.Len())}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pack tests the first k values of g and returns the results as a word, bit
// i for g[i]; bits k and up are zero. The arithmetic tests run over all 64
// slots (whatever a short group left in the rest) and mask afterwards; the
// callbacks only ever see real values.
func (t *groupTest) pack(g *group, k int) uint64 {
	var r uint64
	switch t.kind {
	case testInterval:
		lo, span := t.lo, t.span
		for i := groupLen - 4; i >= 0; i -= 4 {
			q := g[i : i+4 : i+4]
			r = r<<4 | b2u(uint32(q[0])-lo <= span) | b2u(uint32(q[1])-lo <= span)<<1 |
				b2u(uint32(q[2])-lo <= span)<<2 | b2u(uint32(q[3])-lo <= span)<<3
		}
	case testSet:
		set, setMin, setLen := t.set, t.setMin, t.setLen
		for i := groupLen - 1; i >= 0; i-- {
			// A non-member's word index is steered to 0 and its bit masked
			// off, so membership costs a shifted load and no branch.
			d := uint64(int64(g[i]) - setMin)
			in := b2u(d < setLen)
			r = r<<1 | set[d>>6&-in]>>(d&63)&in
		}
	case testPred:
		for i, v := range g[:k] {
			r |= b2u(t.pred.Match(v)) << uint(i)
		}
		return r
	case testFunc:
		for i, v := range g[:k] {
			r |= b2u(t.match(v)) << uint(i)
		}
		return r
	}
	return r & lowBits(k)
}

// filterVals runs t over a raw value slice, setting bit base+i of bm for
// every match at index i: the selection loop of a plain block, whose groups
// need no decoding.
func filterVals(vals []int32, t *groupTest, base int, bm *bitmap.Bitmap) {
	if t.kind == testNone {
		return
	}
	for ; len(vals) >= groupLen; vals, base = vals[groupLen:], base+groupLen {
		bm.OrWord(base, t.pack((*group)(vals), groupLen))
	}
	if k := len(vals); k > 0 {
		var g group
		copy(g[:], vals)
		bm.OrWord(base, t.pack(&g, k))
	}
}

// foldVals folds every value of vals into acc.
func foldVals(vals []int32, acc *AggAcc) {
	if len(vals) == 0 {
		return
	}
	var sum int64
	mn, mx := vals[0], vals[0]
	for _, v := range vals {
		sum += int64(v)
		mn, mx = min(mn, v), max(mx, v)
	}
	acc.Sum += sum
	acc.Count += int64(len(vals))
	acc.Min, acc.Max = min(acc.Min, int64(mn)), max(acc.Max, int64(mx))
}
