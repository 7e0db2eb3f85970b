package compress

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmap"
)

// The kernel contract every IntBlock owes its callers, whatever loop shape
// it is built from:
//
//   - Filter, FilterSet and FilterFunc OR their matches into the destination:
//     no pre-set bit is cleared, and no bit outside [base, base+n) changes —
//     above the block as well as below it;
//   - an interval that is empty (IN (), v < MinInt32) or inverted
//     (BETWEEN 9 AND 3) matches nothing, on a block with a negative minimum
//     too;
//   - AppendTo, Gather, AggSelect(nil) and GatherSelect(nil) agree with the
//     plain slice, and append after whatever dst already holds.
//
// The table drives every encoding, built and round-tripped through the wire
// format, across group boundaries (lengths 1..65536, one value either side of
// 64), every packed width, and aligned and unaligned bases.

// widthVals returns n values spanning exactly [vmin, vmin+2^width-1] with a
// negative vmin (the full int32 range at width 32). card > 0 draws them from
// that many distinct values, the shape run-length blocks are for.
func widthVals(rng *rand.Rand, n int, width uint, card int) (vals []int32, vmin, vmax int32) {
	span := int64(1)<<width - 1
	lo := -span/2 - 1
	vals = make([]int32, n)
	for i := range vals {
		off := rng.Int63n(span + 1)
		if card > 0 {
			off = rng.Int63n(int64(card)) * span / int64(card-1)
		}
		vals[i] = int32(lo + off)
	}
	vals[0] = int32(lo)
	vals[n-1] = int32(lo + span*int64(min(n-1, 1))) // a single value has span 0
	mn, mx := minMax(vals)
	return vals, mn, mx
}

// contractForms returns every block form of vals under test: each encoding
// that can hold them, and each of those decoded back from its wire payload.
func contractForms(t *testing.T, vals []int32) map[string]IntBlock {
	t.Helper()
	forms := encodersFor(vals)
	delete(forms, "choose")       // one of the others
	delete(forms, "bitpack/wire") // added back below with the other wire forms
	for _, name := range slices.Collect(maps.Keys(forms)) {
		forms[name+"/wire"] = wireView(forms[name])
	}
	return forms
}

// selection is one Filter/FilterSet/FilterFunc call and its oracle.
type selection struct {
	name  string
	apply func(blk IntBlock, base int, bm *bitmap.Bitmap)
	match func(v int32) bool
}

func predSelection(p Pred) selection {
	return selection{
		name:  fmt.Sprintf("Filter(%v %d %d %v)", p.Op, p.A, p.B, p.Set),
		apply: func(blk IntBlock, base int, bm *bitmap.Bitmap) { blk.Filter(p, base, bm) },
		match: p.Match,
	}
}

func setSelection(name string, set *bitmap.Bitmap, setMin int32) selection {
	return selection{
		name:  "FilterSet(" + name + ")",
		apply: func(blk IntBlock, base int, bm *bitmap.Bitmap) { blk.FilterSet(set, setMin, base, bm) },
		match: func(v int32) bool { return setContains(set, setMin, v) },
	}
}

// contractSelections is the predicate table for values spanning
// [vmin, vmax]: every operator, the non-interval shapes, and the empty,
// inverted, disjoint, straddling, one-value and over-wide intervals.
func contractSelections(rng *rand.Rand, vals []int32, vmin, vmax int32) []selection {
	mid := int32((int64(vmin) + int64(vmax)) / 2)
	quarter := int32((int64(vmin) + int64(mid)) / 2)
	sels := []selection{
		predSelection(Eq(vals[len(vals)/2])),
		predSelection(Pred{Op: OpNe, A: vals[0]}),
		predSelection(Lt(mid)),
		predSelection(Le(mid)),
		predSelection(Gt(mid)),
		predSelection(Ge(mid)),
		predSelection(Between(quarter, mid)),
		predSelection(Between(vmin, vmax)),
		predSelection(In(vals[0], vals[len(vals)/2], vals[len(vals)-1])), // gaps, unless the values coincide
		predSelection(In(mid, mid+1, mid+2)),                             // contiguous: an interval
		// Nothing matches: empty, inverted, and wrapped-to-empty intervals.
		predSelection(In()),
		predSelection(Between(mid, quarter-1)),
		predSelection(Between(vmax, vmin-1)),
		predSelection(Lt(math.MinInt32)),
		predSelection(Gt(math.MaxInt32)),
		// Wider than any code space.
		predSelection(Between(math.MinInt32, math.MaxInt32)),
		predSelection(Ge(math.MinInt32)),
	}
	// Intervals entirely below and above the block, and ones straddling
	// its ends (a bit-packed block clamps them to its code space), where
	// int32 has room.
	if vmin > math.MinInt32+8 {
		sels = append(sels, predSelection(Between(vmin-8, vmin-1)), predSelection(Lt(vmin)),
			predSelection(Between(vmin-8, mid)))
	}
	if vmax < math.MaxInt32-8 {
		sels = append(sels, predSelection(Between(vmax+1, vmax+8)), predSelection(Gt(vmax)),
			predSelection(Between(mid, vmax+8)))
	}
	// One value at either end: the lowest and the highest code alone.
	sels = append(sels, predSelection(Between(vmin, vmin)), predSelection(Between(vmax, vmax)))

	// Dense sets: a window over the middle of the range (so values fall
	// below, inside and above it), one anchored below the block, one that
	// misses it, and the empty set.
	window := bitmap.New(int(min(int64(vmax)-int64(quarter)+1, 1<<16)))
	for i := 0; i < window.Len(); i++ {
		if rng.Intn(3) == 0 {
			window.Set(i)
		}
	}
	sels = append(sels,
		setSelection("window", window, quarter),
		setSelection("full", bitmap.NewFull(300), vmin-7),
		setSelection("empty", bitmap.New(0), vmin),
	)
	if vmax < math.MaxInt32-400 {
		sels = append(sels, setSelection("above", bitmap.NewFull(300), vmax+1))
	}
	if vmin > math.MinInt32+400 {
		sels = append(sels, setSelection("below", bitmap.NewFull(300), vmin-300))
	}

	odd := func(v int32) bool { return v%3 == 1 || v < quarter }
	return append(sels, selection{
		name:  "FilterFunc",
		apply: func(blk IntBlock, base int, bm *bitmap.Bitmap) { blk.FilterFunc(odd, base, bm) },
		match: odd,
	})
}

// randomBitmap returns an n-bit bitmap with about half its bits set.
func randomBitmap(rng *rand.Rand, n int) *bitmap.Bitmap {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = rng.Uint64()
	}
	return bitmap.FromWords(words, n)
}

// oracle returns the positions of vals that sel matches, as a bitmap.
func (sel selection) oracle(vals []int32) *bitmap.Bitmap {
	m := bitmap.New(len(vals))
	for i, v := range vals {
		if sel.match(v) {
			m.Set(i)
		}
	}
	return m
}

// checkSelection runs sel on blk into a copy of pre — a pre-populated
// destination longer than base+n — and requires exactly pre OR the oracle's
// matches (bit i of matches for position base+i).
func checkSelection(t *testing.T, label string, blk IntBlock, sel selection, matches, pre *bitmap.Bitmap, base int) {
	t.Helper()
	got, want := pre.Clone(), pre.Clone()
	matches.ForEach(func(pos int) { want.Set(base + pos) })
	sel.apply(blk, base, got)
	if slices.Equal(got.Words(), want.Words()) {
		return
	}
	n := matches.Len()
	for i := 0; i < got.Len(); i++ {
		if got.Get(i) == want.Get(i) {
			continue
		}
		switch {
		case i < base || i >= base+n:
			t.Fatalf("%s %s base %d: bit %d outside [%d,%d) changed %v -> %v",
				label, sel.name, base, i, base, base+n, pre.Get(i), got.Get(i))
		case pre.Get(i):
			t.Fatalf("%s %s base %d: pre-set bit %d was cleared", label, sel.name, base, i)
		default:
			t.Fatalf("%s %s base %d: bit %d = %v, oracle %v", label, sel.name, base, i, got.Get(i), want.Get(i))
		}
	}
}

// checkDecoders holds AppendTo, Gather, AggSelect(nil) and GatherSelect(nil)
// to the plain slice, appending after a dst prefix that must survive.
func checkDecoders(t *testing.T, label string, blk IntBlock, vals []int32) {
	t.Helper()
	prefix := []int32{-7, 9}
	if got := blk.AppendTo(slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), vals...)) {
		t.Fatalf("%s: AppendTo disagrees with the values (len %d want %d)", label, len(got), len(prefix)+len(vals))
	}
	var idx, want []int32
	for i := 0; i < len(vals); i += 1 + i%16 {
		idx = append(idx, int32(i))
		want = append(want, vals[i])
	}
	if last := int32(len(vals) - 1); idx[len(idx)-1] != last {
		idx, want = append(idx, last), append(want, vals[last])
	}
	if got := blk.Gather(idx, slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), want...)) {
		t.Fatalf("%s: Gather disagrees with the values", label)
	}
	if got := blk.GatherSelect(nil, 0, slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), vals...)) {
		t.Fatalf("%s: GatherSelect(nil) disagrees with the values", label)
	}
	checkKernelOracle(t, label, blk, vals, nil, 0)
	// A bit-packed block's last few fields end less than 8 bytes from the
	// end of its words: gather each of the last indexes alone, and select
	// them for AggSelect and GatherSelect.
	last := bitmap.New(len(vals))
	for i := max(len(vals)-9, 0); i < len(vals); i++ {
		if got := blk.Gather([]int32{int32(i)}, nil); len(got) != 1 || got[0] != vals[i] {
			t.Fatalf("%s: Gather at index %d of %d = %v, want %d", label, i, len(vals), got, vals[i])
		}
		last.Set(i)
	}
	checkKernelOracle(t, label, blk, vals, last, 0)
}

func TestKernelContract(t *testing.T) {
	allWidths := make([]uint, 32)
	for i := range allWidths {
		allWidths[i] = uint(i + 1)
	}
	allBases := []int{0, 1, 63, 64, 65, 65536}
	for _, n := range []int{1, 63, 64, 65, 4097, 65535, 65536} {
		// Short blocks take every width at every base. Longer ones rotate
		// through the bases, and the two longest share the width classes
		// between them: one bit, under/at a byte, mid, under/at a word.
		widths, bases := allWidths, allBases
		switch n {
		case 65535:
			widths = []uint{1, 8, 31}
		case 65536:
			widths = []uint{7, 18, 32}
		}
		for wi, width := range widths {
			if n > 65 {
				bases = allBases[(wi+n)%len(allBases):][:1]
			}
			rng := rand.New(rand.NewSource(int64(n)*100 + int64(width)))
			pre := make([]*bitmap.Bitmap, len(bases))
			for i, base := range bases {
				pre[i] = randomBitmap(rng, base+n+1+rng.Intn(130))
			}
			for _, card := range []int{0, 5} {
				vals, vmin, vmax := widthVals(rng, n, width, card)
				sels := contractSelections(rng, vals, vmin, vmax)
				matches := make([]*bitmap.Bitmap, len(sels))
				for i, sel := range sels {
					matches[i] = sel.oracle(vals)
				}
				for name, blk := range contractForms(t, vals) {
					label := fmt.Sprintf("%s n=%d width=%d card=%d", name, n, width, card)
					if bp, ok := blk.(*BitPackBlock); ok && n > 1 && bp.Width() != width {
						t.Fatalf("%s: packed at width %d", label, bp.Width())
					}
					checkDecoders(t, label, blk, vals)
					for i, sel := range sels {
						for bi, base := range bases {
							checkSelection(t, label, blk, sel, matches[i], pre[bi], base)
						}
					}
				}
			}
		}
	}
}
