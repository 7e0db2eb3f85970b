package compress

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/bitmap"
)

// fuzzDecodeValues turns raw fuzz bytes into a value slice plus predicate
// operands. The first byte biases the value range (small domains exercise
// the RLE run paths and narrow bit-pack widths, large ones the wide widths).
func fuzzDecodeValues(data []byte) (vals []int32, a, b int32) {
	if len(data) == 0 {
		return nil, 0, 0
	}
	mode := data[0]
	data = data[1:]
	for len(data) >= 4 {
		v := int32(binary.LittleEndian.Uint32(data[:4]))
		switch mode % 4 {
		case 0:
			v = v % 8 // tiny domain: RLE territory
		case 1:
			v = v % 1024
		case 2:
			v = v % 1_000_000
		}
		vals = append(vals, v)
		data = data[4:]
	}
	if n := len(vals); n > 0 {
		a, b = vals[0]%97, vals[n-1]%97
		if a > b {
			a, b = b, a
		}
	}
	return vals, a, b
}

// encodersFor returns every encoding construction of vals: the three
// explicit constructors, the storage manager's Choose, and the bit-packed
// block as a pool frame serves it — a view over its wire payload.
func encodersFor(vals []int32) map[string]IntBlock {
	return map[string]IntBlock{
		"plain":        NewPlainBlock(vals),
		"rle":          NewRLEBlock(vals),
		"bitpack":      NewBitPackBlock(vals),
		"bitpack/wire": wireView(NewBitPackBlock(vals)),
		"choose":       Choose(vals),
	}
}

// wireView decodes blk from a payload of exactly its wire size, so that a
// read past the payload's end cannot land in spare capacity. A bit-packed
// result's words then start at byte 13 of the payload: unaligned.
func wireView(blk IntBlock) IntBlock {
	wire := AppendBlock(blk, nil)
	dec, err := DecodeBlock(blk.Encoding(), blk.Len(), wire[:len(wire):len(wire)])
	if err != nil {
		panic(err)
	}
	return dec
}

// checkBlockOracle compares one encoded block against the plain-slice
// oracle: full decode, random access, Filter, FilterSet and Gather.
func checkBlockOracle(t *testing.T, name string, blk IntBlock, vals []int32, preds []Pred, setMin int32, set *bitmap.Bitmap, gatherIdx []int32) {
	t.Helper()
	n := len(vals)
	if blk.Len() != n {
		t.Fatalf("%s: Len=%d want %d", name, blk.Len(), n)
	}

	// Round-trip decode.
	got := blk.AppendTo(nil)
	if len(got) != n {
		t.Fatalf("%s: AppendTo returned %d values, want %d", name, len(got), n)
	}
	for i, v := range got {
		if v != vals[i] {
			t.Fatalf("%s: decode[%d]=%d want %d", name, i, v, vals[i])
		}
	}
	if n > 0 {
		wantMn, wantMx := minMax(vals)
		mn, mx := blk.MinMax()
		if mn != wantMn || mx != wantMx {
			t.Fatalf("%s: MinMax=(%d,%d) want (%d,%d)", name, mn, mx, wantMn, wantMx)
		}
		// Random access at a few positions.
		for _, i := range []int{0, n / 2, n - 1} {
			if blk.Get(i) != vals[i] {
				t.Fatalf("%s: Get(%d)=%d want %d", name, i, blk.Get(i), vals[i])
			}
		}
	}

	// Filter against the oracle for every predicate.
	for _, p := range preds {
		bm := bitmap.New(n)
		blk.Filter(p, 0, bm)
		for i, v := range vals {
			if bm.Get(i) != p.Match(v) {
				t.Fatalf("%s: Filter(%+v) bit %d = %v, oracle %v (value %d)",
					name, p, i, bm.Get(i), p.Match(v), v)
			}
		}
	}

	// FilterSet against the membership oracle.
	bm := bitmap.New(n)
	blk.FilterSet(set, setMin, 0, bm)
	for i, v := range vals {
		want := setContains(set, setMin, v)
		if bm.Get(i) != want {
			t.Fatalf("%s: FilterSet bit %d = %v, oracle %v (value %d, setMin %d)",
				name, i, bm.Get(i), want, v, setMin)
		}
	}

	// Gather at sorted positions.
	out := blk.Gather(gatherIdx, nil)
	if len(out) != len(gatherIdx) {
		t.Fatalf("%s: Gather returned %d values, want %d", name, len(out), len(gatherIdx))
	}
	for k, i := range gatherIdx {
		if out[k] != vals[i] {
			t.Fatalf("%s: Gather[%d] (pos %d) = %d want %d", name, k, i, out[k], vals[i])
		}
	}

	// Aggregation/selection kernels against the plain-slice oracle, with a
	// selection bitmap derived from the first predicate.
	sel := bitmap.New(n)
	if len(preds) > 0 {
		blkFilterOracle(vals, preds[0], sel)
	} else {
		sel = bitmap.NewFull(n)
	}
	checkKernelOracle(t, name, blk, vals, sel, 0)
	checkKernelOracle(t, name, blk, vals, nil, 0)
}

// blkFilterOracle sets bit i of bm for every vals[i] matching p.
func blkFilterOracle(vals []int32, p Pred, bm *bitmap.Bitmap) {
	for i, v := range vals {
		if p.Match(v) {
			bm.Set(i)
		}
	}
}

// checkKernelOracle compares AggSelect, GatherSelect and FilterFunc against
// straight loops over the decoded values. sel == nil means all-selected;
// otherwise bit base+i of sel selects vals[i].
func checkKernelOracle(t *testing.T, name string, blk IntBlock, vals []int32, sel *bitmap.Bitmap, base int) {
	t.Helper()
	selected := func(i int) bool { return sel == nil || sel.Get(base+i) }

	want := NewAggAcc()
	for i, v := range vals {
		if selected(i) {
			want.observe(v, 1)
		}
	}
	got := NewAggAcc()
	blk.AggSelect(sel, base, &got)
	if got != want {
		t.Fatalf("%s: AggSelect=%+v oracle=%+v (base %d)", name, got, want, base)
	}

	var wantVals []int32
	for i, v := range vals {
		if selected(i) {
			wantVals = append(wantVals, v)
		}
	}
	gotVals := blk.GatherSelect(sel, base, nil)
	if len(gotVals) != len(wantVals) {
		t.Fatalf("%s: GatherSelect returned %d values, want %d (base %d)",
			name, len(gotVals), len(wantVals), base)
	}
	for k := range wantVals {
		if gotVals[k] != wantVals[k] {
			t.Fatalf("%s: GatherSelect[%d]=%d want %d (base %d)",
				name, k, gotVals[k], wantVals[k], base)
		}
	}

	match := func(v int32) bool { return v%3 == 1 || v < 0 }
	bm := bitmap.New(base + len(vals) + 3)
	blk.FilterFunc(match, base, bm)
	for i, v := range vals {
		if bm.Get(base+i) != match(v) {
			t.Fatalf("%s: FilterFunc bit %d = %v, oracle %v (value %d, base %d)",
				name, i, bm.Get(base+i), match(v), v, base)
		}
	}
	for i := 0; i < base; i++ {
		if bm.Get(i) {
			t.Fatalf("%s: FilterFunc stray bit below base at %d", name, i)
		}
	}
}

// FuzzRoundTrip is the native fuzz target shared by all three encodings:
// whatever bytes arrive, encode -> decode/Filter/FilterSet/Gather must
// agree with the plain-slice oracle on every scheme.
func FuzzRoundTrip(f *testing.F) {
	// Seed corpus: sorted runs, alternation, negatives, single values,
	// wide ranges, empty.
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 5, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x80, 0x39, 0x30, 0x00, 0x00})
	f.Add([]byte{3, 0x10, 0x27, 0x00, 0x00, 0x20, 0x4e, 0x00, 0x00, 0x30, 0x75, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound block size like the storage layer does
		}
		vals, a, b := fuzzDecodeValues(data)
		n := len(vals)

		preds := []Pred{
			Eq(a), Between(a, b), Lt(b), Le(a), Gt(a), Ge(b),
			{Op: OpNe, A: a}, In(a, b, a+3),
		}
		// Membership set over a window of the value domain.
		setMin := a - 1
		set := bitmap.New(64)
		for i := 0; i < 64; i += 3 {
			set.Set(i)
		}
		var gatherIdx []int32
		for i := 0; i < n; i += 2 {
			gatherIdx = append(gatherIdx, int32(i))
		}

		for name, blk := range encodersFor(vals) {
			checkBlockOracle(t, name, blk, vals, preds, setMin, set, gatherIdx)
		}
	})
}

// FuzzAggSelect fuzzes the aggregation/selection kernels: for arbitrary
// values and an arbitrary selection pattern, AggSelect / GatherSelect /
// FilterFunc on every encoding must agree with straight loops over the
// decoded values, at aligned and unaligned bases.
func FuzzAggSelect(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}, []byte{0xff})
	f.Add([]byte{1, 5, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0}, []byte{0xaa, 0x55})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0x39, 0x30, 0x00, 0x00}, []byte{})
	f.Add([]byte{3, 0x10, 0x27, 0x00, 0x00, 0x20, 0x4e, 0x00, 0x00}, []byte{0x01})
	f.Fuzz(func(t *testing.T, data, selBytes []byte) {
		if len(data) > 1<<16 {
			return
		}
		vals, _, _ := fuzzDecodeValues(data)
		n := len(vals)
		for _, base := range []int{0, 64, 13} {
			sel := bitmap.New(base + n)
			for i := 0; i < n; i++ {
				if len(selBytes) > 0 && selBytes[i%len(selBytes)]&(1<<uint(i%8)) != 0 {
					sel.Set(base + i)
				}
			}
			for name, blk := range encodersFor(vals) {
				checkKernelOracle(t, name, blk, vals, sel, base)
				if base == 0 {
					checkKernelOracle(t, name, blk, vals, nil, 0)
				}
			}
		}
	})
}

// FuzzFilter fuzzes the selection kernels: for arbitrary values, any
// predicate operator (IN with gaps and != included) or dense set window, any
// base and any destination prefill, Filter / FilterSet / FilterFunc on every
// encoding must leave exactly the prefill OR the decoded oracle's matches.
func FuzzFilter(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzFilter) holds one block per
	// bit-pack width class (1, 7, 8, 31, 32 bits), a 65-value block (one
	// full group and a one-value tail), inverted intervals, one over a
	// block with a negative minimum, and 130-value blocks at widths 15 and
	// 18 (two full groups) under an interval straddling one end, and set
	// windows that reach BitPackBlock.FilterSet's membership table: one
	// straddling each end of a 130-value width-8 block, one covering a
	// 70-value width-3 block (a full group and a tail); these two add the
	// empty block and a low-cardinality one every encoding accepts.
	f.Add([]byte{0}, uint8(OpEq), int32(0), int32(0), uint16(0), uint64(0))
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}, uint8(OpIn), int32(0), int32(2), uint16(64), ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, opRaw uint8, a, b int32, baseRaw uint16, prefill uint64) {
		if len(data) > 1<<16 {
			return
		}
		vals, _, _ := fuzzDecodeValues(data)
		n := len(vals)
		p := Pred{Op: Op(opRaw % 8), A: a, B: b}
		if p.Op == OpIn {
			p = In(a, b, a+3)
		}
		// A 200-bit set window anchored at a, patterned by the prefill.
		set := bitmap.New(200)
		for i := 0; i < set.Len(); i++ {
			if prefill>>(uint(i)%64)&1 != 0 {
				set.Set(i)
			}
		}
		odd := func(v int32) bool { return v%3 == 1 || v < a }
		sels := []selection{
			predSelection(p),
			setSelection("window", set, a),
			{name: "FilterFunc", match: odd,
				apply: func(blk IntBlock, base int, bm *bitmap.Bitmap) { blk.FilterFunc(odd, base, bm) }},
		}
		base := int(baseRaw % 200)
		words := make([]uint64, (base+n+70+63)/64)
		for i := range words {
			words[i] = bits.RotateLeft64(prefill, i)
		}
		pre := bitmap.FromWords(words, base+n+70)
		for _, sel := range sels {
			matches := sel.oracle(vals)
			for name, blk := range encodersFor(vals) {
				checkSelection(t, name, blk, sel, matches, pre, base)
			}
		}
	})
}

// FuzzDictEncodePred fuzzes the order-preserving dictionary against a
// sorted-slice and map oracle (checkDictOracle): Code, Value, Encode and
// every EncodePred operator over the newline-separated values of blob, with
// a and b as probes that may be absent. The last argument once chose the
// operator; it stays so the committed corpus still loads.
func FuzzDictEncodePred(f *testing.F) {
	f.Add("apple\nbanana\ncherry", "banana", "cherry", uint8(0))
	f.Add("x\ny\nz\nx", "w", "zz", uint8(6))
	f.Add("", "a", "b", uint8(2))
	f.Add("ASIA\nAS\nASIAN\n\nASIA", "ASI", "ASIA", uint8(7))
	f.Fuzz(func(t *testing.T, blob, a, b string, _ uint8) {
		vals := strings.Split(blob, "\n")
		if len(vals) > 32 {
			vals = vals[:32]
		}
		checkDictOracle(t, vals, []string{a, b})
	})
}
