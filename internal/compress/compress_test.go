package compress

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitmap"
)

// genVals produces test columns with different shapes: random, sorted,
// low-cardinality, near-monotonic.
func genVals(rng *rand.Rand, n int) []int32 {
	vals := make([]int32, n)
	switch rng.Intn(4) {
	case 0: // random wide
		for i := range vals {
			vals[i] = rng.Int31n(1 << 20)
		}
	case 1: // sorted runs (RLE-friendly)
		v := int32(0)
		for i := range vals {
			if rng.Intn(10) == 0 {
				v += rng.Int31n(5) + 1
			}
			vals[i] = v
		}
	case 2: // low cardinality (bitpack-friendly)
		for i := range vals {
			vals[i] = rng.Int31n(11)
		}
	default: // near-monotonic (narrow bit-pack widths over a drifting base)
		v := int32(rng.Int31n(1000))
		for i := range vals {
			v += rng.Int31n(4)
			vals[i] = v
		}
	}
	return vals
}

func genPred(rng *rand.Rand, vals []int32) Pred {
	pick := func() int32 {
		if len(vals) == 0 {
			return 0
		}
		return vals[rng.Intn(len(vals))]
	}
	switch rng.Intn(8) {
	case 0:
		return Eq(pick())
	case 1:
		return Lt(pick())
	case 2:
		return Le(pick())
	case 3:
		return Gt(pick())
	case 4:
		return Ge(pick())
	case 5:
		a, b := pick(), pick()
		if a > b {
			a, b = b, a
		}
		return Between(a, b)
	case 6:
		return In(pick(), pick(), pick())
	default:
		return Pred{Op: OpNe, A: pick()}
	}
}

func allEncoders() map[string]func([]int32) IntBlock {
	return map[string]func([]int32) IntBlock{
		"plain":   func(v []int32) IntBlock { return NewPlainBlock(v) },
		"rle":     func(v []int32) IntBlock { return NewRLEBlock(v) },
		"bitpack": func(v []int32) IntBlock { return NewBitPackBlock(v) },
		"choose":  Choose,
	}
}

// TestRoundTrip: every encoding decodes back to the original values.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, enc := range allEncoders() {
		for trial := 0; trial < 20; trial++ {
			vals := genVals(rng, rng.Intn(500)+1)
			blk := enc(vals)
			if blk.Len() != len(vals) {
				t.Fatalf("%s: Len=%d want %d", name, blk.Len(), len(vals))
			}
			got := blk.AppendTo(nil)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%s trial %d: decode[%d]=%d want %d", name, trial, i, got[i], vals[i])
				}
			}
			mn, mx := blk.MinMax()
			wantMn, wantMx := minMax(vals)
			if mn != wantMn || mx != wantMx {
				t.Fatalf("%s: MinMax=(%d,%d) want (%d,%d)", name, mn, mx, wantMn, wantMx)
			}
		}
	}
}

// TestGetRandomAccess: Get(i) == vals[i] for all encodings.
func TestGetRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, enc := range allEncoders() {
		vals := genVals(rng, 200)
		blk := enc(vals)
		for i := range vals {
			if got := blk.Get(i); got != vals[i] {
				t.Fatalf("%s: Get(%d)=%d want %d", name, i, got, vals[i])
			}
		}
	}
}

// TestFilterEquivalence: direct operation on compressed data must produce
// exactly the positions the naive decoded filter produces.
func TestFilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, enc := range allEncoders() {
		for trial := 0; trial < 30; trial++ {
			vals := genVals(rng, rng.Intn(400)+1)
			p := genPred(rng, vals)
			blk := enc(vals)
			const base = 13
			bm := bitmap.New(base + len(vals) + 5)
			blk.Filter(p, base, bm)
			for i, v := range vals {
				if bm.Get(base+i) != p.Match(v) {
					t.Fatalf("%s trial %d pred %v %d..%d: pos %d got %v val %d",
						name, trial, p.Op, p.A, p.B, i, bm.Get(base+i), v)
				}
			}
			// No bits outside [base, base+len).
			for i := 0; i < base; i++ {
				if bm.Get(i) {
					t.Fatalf("%s: stray bit below base at %d", name, i)
				}
			}
		}
	}
}

// TestGatherEquivalence: Gather at sorted positions equals indexed decode.
func TestGatherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for name, enc := range allEncoders() {
		for trial := 0; trial < 20; trial++ {
			vals := genVals(rng, rng.Intn(300)+1)
			blk := enc(vals)
			var idx []int32
			for i := range vals {
				if rng.Intn(3) == 0 {
					idx = append(idx, int32(i))
				}
			}
			got := blk.Gather(idx, nil)
			if len(got) != len(idx) {
				t.Fatalf("%s: Gather len=%d want %d", name, len(got), len(idx))
			}
			for k, i := range idx {
				if got[k] != vals[i] {
					t.Fatalf("%s: Gather[%d]=%d want vals[%d]=%d", name, k, got[k], i, vals[i])
				}
			}
		}
	}
}

func TestRLESortedFilterRange(t *testing.T) {
	vals := []int32{1, 1, 1, 3, 3, 5, 5, 5, 5, 9}
	blk := NewRLEBlock(vals)
	cases := []struct {
		p          Pred
		start, end int32
	}{
		{Eq(3), 3, 5},
		{Eq(2), 0, 0}, // absent value -> empty
		{Between(3, 5), 3, 9},
		{Between(0, 100), 0, 10},
		{Lt(5), 0, 5},
		{Ge(5), 5, 10},
		{Eq(9), 9, 10},
	}
	for _, c := range cases {
		s, e, ok := blk.SortedFilterRange(c.p)
		if !ok {
			t.Fatalf("pred %v: not ok", c.p)
		}
		if e < s {
			s, e = 0, 0
		}
		if s != c.start || e != c.end {
			t.Fatalf("pred %v %d..%d: got [%d,%d) want [%d,%d)", c.p.Op, c.p.A, c.p.B, s, e, c.start, c.end)
		}
	}
	if _, _, ok := blk.SortedFilterRange(Pred{Op: OpNe, A: 3}); ok {
		t.Fatal("OpNe should not be range-expressible")
	}
}

func TestRLERunAccounting(t *testing.T) {
	vals := []int32{7, 7, 7, 8, 8, 9}
	blk := NewRLEBlock(vals)
	if blk.NumRuns() != 3 {
		t.Fatalf("NumRuns=%d want 3", blk.NumRuns())
	}
	if CountRuns(vals) != 3 {
		t.Fatalf("CountRuns=%d want 3", CountRuns(vals))
	}
	if CountRuns(nil) != 0 {
		t.Fatal("CountRuns(nil) should be 0")
	}
	runs := blk.Runs()
	total := int32(0)
	for _, r := range runs {
		total += r.Len
	}
	if total != int32(len(vals)) {
		t.Fatalf("run lengths sum to %d want %d", total, len(vals))
	}
}

func TestBitPackWidth(t *testing.T) {
	blk := NewBitPackBlock([]int32{100, 101, 102, 103})
	if blk.Width() != 2 {
		t.Fatalf("width=%d want 2", blk.Width())
	}
	// Constant column packs into 1 bit.
	one := NewBitPackBlock([]int32{5, 5, 5})
	if one.Width() != 1 {
		t.Fatalf("constant width=%d want 1", one.Width())
	}
	// Negative values round-trip.
	neg := NewBitPackBlock([]int32{-10, -5, 0, 5})
	got := neg.AppendTo(nil)
	if got[0] != -10 || got[3] != 5 {
		t.Fatalf("negatives: %v", got)
	}
}

// TestChoosePicksSensibly pins what Choose promises: over every value shape
// it returns the smallest of the three encodings by the blocks' own
// CompressedBytes (its size estimates duplicate those formulas; this is the
// check that they agree), ties going to the earlier of plain < RLE <
// bit-packed, and the block round-trips. The sparse and near-monotone shapes
// are the ones the retired bit-vector and delta encodings used to take.
func TestChoosePicksSensibly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int, f func(i int) int32) []int32 {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	sparse := []int32{0, 5, 9, 17, 31}
	mono := int32(1000)
	shapes := []struct {
		name string
		vals []int32
		want Encoding
	}{
		{"empty", nil, Plain},
		{"single-value", []int32{42}, Plain},
		{"constant", gen(10000, func(int) int32 { return 7 }), RLE},
		{"long-run", gen(10000, func(i int) int32 { return int32(i / 1000) }), RLE},
		{"short-run", gen(10000, func(i int) int32 { return int32(i / 2 % 50) }), BitPack},
		{"low-cardinality-dense", gen(10000, func(int) int32 { return rng.Int31n(11) }), BitPack},
		{"low-cardinality-sparse", gen(10000, func(int) int32 { return sparse[rng.Intn(len(sparse))] }), BitPack},
		{"near-monotone", gen(10000, func(int) int32 { mono += rng.Int31n(4); return mono }), BitPack},
		{"full-range-random", gen(4096, func(int) int32 { return rng.Int31() - rng.Int31() }), Plain},
		{"negative-minimum", gen(10000, func(int) int32 { return -1000 + rng.Int31n(100) }), BitPack},
	}
	for _, sh := range shapes {
		best := IntBlock(NewPlainBlock(sh.vals))
		for _, cand := range []IntBlock{NewRLEBlock(sh.vals), NewBitPackBlock(sh.vals)} {
			if cand.CompressedBytes() < best.CompressedBytes() {
				best = cand
			}
		}
		if best.Encoding() != sh.want {
			t.Errorf("%s: the smallest candidate is %v (%d B), the table expects %v", sh.name, best.Encoding(), best.CompressedBytes(), sh.want)
		}
		blk := Choose(sh.vals)
		if blk.Encoding() != best.Encoding() || blk.CompressedBytes() != best.CompressedBytes() {
			t.Errorf("%s: Choose returned %v (%d B), the smallest candidate is %v (%d B)",
				sh.name, blk.Encoding(), blk.CompressedBytes(), best.Encoding(), best.CompressedBytes())
		}
		if got := blk.AppendTo(nil); !slices.Equal(got, sh.vals) {
			t.Errorf("%s: %v block does not round-trip", sh.name, blk.Encoding())
		}
	}
}

func TestCompressedSizesOrdered(t *testing.T) {
	// A sorted column must compress far better with RLE than plain.
	vals := make([]int32, 60000)
	for i := range vals {
		vals[i] = int32(i / 5000) // 12 runs
	}
	rle := NewRLEBlock(vals)
	plain := NewPlainBlock(vals)
	if rle.CompressedBytes() >= plain.CompressedBytes()/100 {
		t.Fatalf("rle %dB vs plain %dB: expected >100x", rle.CompressedBytes(), plain.CompressedBytes())
	}
}

func TestPredBounds(t *testing.T) {
	cases := []struct {
		p      Pred
		lo, hi int32
		ok     bool
	}{
		{Eq(5), 5, 5, true},
		{Between(2, 9), 2, 9, true},
		{Lt(5), -1 << 31, 4, true},
		{Le(5), -1 << 31, 5, true},
		{Gt(5), 6, 1<<31 - 1, true},
		{Ge(5), 5, 1<<31 - 1, true},
		{In(3, 4, 5), 3, 5, true}, // contiguous set -> interval
		{In(3, 7), 3, 7, false},   // gap -> not an interval
		{Pred{Op: OpNe, A: 1}, 0, 0, false},
		// Empty predicates render an inverted interval instead of wrapping.
		{In(), 0, -1, true},
		{Lt(-1 << 31), 0, -1, true},
		{Gt(1<<31 - 1), 0, -1, true},
	}
	for _, c := range cases {
		lo, hi, ok := c.p.Bounds()
		if ok != c.ok {
			t.Fatalf("pred %v: ok=%v want %v", c.p, ok, c.ok)
		}
		if ok && (lo != c.lo || hi != c.hi) {
			t.Fatalf("pred %v: bounds (%d,%d) want (%d,%d)", c.p, lo, hi, c.lo, c.hi)
		}
	}
}

func TestPredMayMatch(t *testing.T) {
	if !Eq(5).MayMatch(0, 10) || Eq(11).MayMatch(0, 10) {
		t.Fatal("Eq MayMatch wrong")
	}
	if !In(3, 7).MayMatch(6, 8) || In(3, 7).MayMatch(4, 6) {
		t.Fatal("In MayMatch wrong")
	}
	ne := Pred{Op: OpNe, A: 5}
	if ne.MayMatch(5, 5) || !ne.MayMatch(5, 6) {
		t.Fatal("Ne MayMatch wrong")
	}
}

func TestDictOrderPreserving(t *testing.T) {
	d := BuildDict([]string{"EUROPE", "ASIA", "AMERICA", "ASIA", "AFRICA", "MIDDLE EAST"})
	if d.Size() != 5 {
		t.Fatalf("size=%d want 5", d.Size())
	}
	// Codes must be in lexicographic order.
	prev := ""
	for c := int32(0); c < int32(d.Size()); c++ {
		if d.Value(c) < prev {
			t.Fatalf("dictionary not order-preserving at code %d", c)
		}
		prev = d.Value(c)
	}
	code, ok := d.Code("ASIA")
	if !ok || d.Value(code) != "ASIA" {
		t.Fatal("Code/Value round trip failed")
	}
	if _, ok := d.Code("ATLANTIS"); ok {
		t.Fatal("absent value should not have a code")
	}
}

func TestDictEncodePred(t *testing.T) {
	d := BuildDict([]string{"a", "c", "e", "g"})
	vals := d.Values()
	codeOf := func(s string) int32 {
		c, _ := d.Code(s)
		return c
	}
	// Equality on present value.
	p := d.EncodePred(OpEq, "c", "", nil)
	if !p.Match(codeOf("c")) || p.Match(codeOf("a")) {
		t.Fatal("OpEq encode wrong")
	}
	// Equality on absent value matches nothing.
	p = d.EncodePred(OpEq, "b", "", nil)
	for c := range vals {
		if p.Match(int32(c)) {
			t.Fatal("absent OpEq matched something")
		}
	}
	// Between spanning absent endpoints: "b".."f" selects c,e.
	p = d.EncodePred(OpBetween, "b", "f", nil)
	want := map[string]bool{"c": true, "e": true}
	for c, s := range vals {
		if p.Match(int32(c)) != want[s] {
			t.Fatalf("between: value %q match=%v", s, p.Match(int32(c)))
		}
	}
	// In with some absent members.
	p = d.EncodePred(OpIn, "", "", []string{"a", "x", "g"})
	wantIn := map[string]bool{"a": true, "g": true}
	for c, s := range vals {
		if p.Match(int32(c)) != wantIn[s] {
			t.Fatalf("in: value %q match=%v", s, p.Match(int32(c)))
		}
	}
	// Lt / Ge with absent pivot.
	p = d.EncodePred(OpLt, "d", "", nil)
	if !p.Match(codeOf("c")) || p.Match(codeOf("e")) {
		t.Fatal("OpLt encode wrong")
	}
	p = d.EncodePred(OpGe, "d", "", nil)
	if p.Match(codeOf("c")) || !p.Match(codeOf("e")) {
		t.Fatal("OpGe encode wrong")
	}
}

// checkDictOracle checks BuildDict(vals) against a sorted slice and a map
// built from the same values: Size, Value, Values, Code and Encode over vals
// and probes, and every EncodePred operator for every pair of operands drawn
// from the values and probes, with an In set that repeats its members.
func checkDictOracle(t *testing.T, vals, probes []string) {
	t.Helper()
	uniq := slices.Compact(slices.Sorted(slices.Values(vals)))
	code := make(map[string]int32, len(uniq))
	for c, v := range uniq {
		code[v] = int32(c)
	}
	d := BuildDict(vals)
	if d.Size() != len(uniq) {
		t.Fatalf("size %d, oracle %d", d.Size(), len(uniq))
	}
	if got := d.Values(); !slices.Equal(got, uniq) {
		t.Fatalf("values %q, oracle %q", got, uniq)
	} else if len(got) > 0 {
		got[0] = "mutated"
		if d.Value(0) != uniq[0] {
			t.Fatal("Values shares memory with the dictionary")
		}
	}
	for c, v := range uniq {
		if got := d.Value(int32(c)); got != v {
			t.Fatalf("Value(%d) = %q, oracle %q", c, got, v)
		}
	}
	all := append(append([]string(nil), vals...), probes...)
	enc := d.Encode(all, nil)
	for i, s := range all {
		want, ok := code[s]
		if !ok {
			want = -1
		}
		if got, gotOK := d.Code(s); gotOK != ok || ok && got != want {
			t.Fatalf("Code(%q) = %d, %v; oracle %d, %v", s, got, gotOK, want, ok)
		}
		if enc[i] != want {
			t.Fatalf("Encode(%q) = %d, oracle %d", s, enc[i], want)
		}
	}
	operands := append(append([]string(nil), uniq...), probes...)
	for op := OpEq; op <= OpIn; op++ {
		for _, a := range operands {
			for _, b := range operands {
				p := d.EncodePred(op, a, b, []string{a, b, a})
				for c, s := range uniq {
					var want bool
					switch op {
					case OpEq:
						want = s == a
					case OpNe:
						want = s != a
					case OpLt:
						want = s < a
					case OpLe:
						want = s <= a
					case OpGt:
						want = s > a
					case OpGe:
						want = s >= a
					case OpBetween:
						want = s >= a && s <= b
					case OpIn:
						want = s == a || s == b
					}
					if p.Match(int32(c)) != want {
						t.Fatalf("op %v (%q, %q) on %q: codes say %v, strings say %v", op, a, b, s, p.Match(int32(c)), want)
					}
				}
			}
		}
	}
}

// TestDictOracle runs the oracle over the shapes a binary search can get
// wrong: no values, the empty string as a value, values that share
// prefixes, duplicates, and probes absent from the dictionary (below, above,
// between and prefix-related to the values).
func TestDictOracle(t *testing.T) {
	probes := []string{"", "\x00", "A", "AS", "ASIA", "ASIAN", "ASIA ", "B", "MIDDLE", "zz", "\xff"}
	for name, vals := range map[string][]string{
		"empty":        nil,
		"one":          {"ASIA"},
		"empty string": {"", "ASIA", "", "EUROPE"},
		"only empty":   {""},
		"prefixes":     {"ASIA", "AS", "A", "ASIAN", "ASIA ", "ASIA", "AS"},
		"regions":      {"EUROPE", "ASIA", "AMERICA", "ASIA", "AFRICA", "MIDDLE EAST"},
		"bytes":        {"\xff", "\x00", "a\x00", "a", "\xfe\xff"},
	} {
		t.Run(name, func(t *testing.T) { checkDictOracle(t, vals, probes) })
	}
}

// TestNewSortedDict: the constructor adopts values that are strictly
// ascending, the empty string first included, and refuses duplicates,
// descending pairs and offsets that do not partition the bytes.
func TestNewSortedDict(t *testing.T) {
	for _, c := range []struct {
		data string
		offs []uint32
		ok   bool
	}{
		{"", []uint32{0}, true},
		{"", []uint32{0, 0}, true},
		{"ab", []uint32{0, 0, 1, 2}, true},
		{"ASIAASIAN", []uint32{0, 4, 9}, true},
		{"ba", []uint32{0, 1, 2}, false},     // descending
		{"aa", []uint32{0, 1, 2}, false},     // duplicate
		{"a", []uint32{0, 0, 0, 1}, false},   // duplicate ""
		{"ab", []uint32{0, 1}, false},        // does not reach the end
		{"ab", []uint32{1, 2}, false},        // does not start at 0
		{"abc", []uint32{0, 2, 1, 3}, false}, // decreasing offset
		{"", nil, false},
	} {
		d, err := NewSortedDict(c.data, c.offs)
		if (err == nil) != c.ok {
			t.Errorf("NewSortedDict(%q, %v): err = %v, want ok=%v", c.data, c.offs, err, c.ok)
			continue
		}
		if c.ok && d.Bytes() != int64(len(c.data)+4*len(c.offs)) {
			t.Errorf("NewSortedDict(%q, %v): Bytes = %d", c.data, c.offs, d.Bytes())
		}
	}
}

// TestQuickDictPredEquivalence: for random string universes and predicates,
// evaluating the string predicate directly must equal evaluating the encoded
// code predicate.
func TestQuickDictPredEquivalence(t *testing.T) {
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var universe []string
		for _, l := range letters {
			if rng.Intn(2) == 0 {
				universe = append(universe, l)
			}
		}
		if len(universe) == 0 {
			universe = []string{"a"}
		}
		d := BuildDict(universe)
		a := letters[rng.Intn(len(letters))]
		b := letters[rng.Intn(len(letters))]
		if a > b {
			a, b = b, a
		}
		ops := []Op{OpEq, OpLt, OpLe, OpGt, OpGe, OpBetween}
		op := ops[rng.Intn(len(ops))]
		p := d.EncodePred(op, a, b, nil)
		strMatch := func(s string) bool {
			switch op {
			case OpEq:
				return s == a
			case OpLt:
				return s < a
			case OpLe:
				return s <= a
			case OpGt:
				return s > a
			case OpGe:
				return s >= a
			default:
				return s >= a && s <= b
			}
		}
		for c, s := range d.Values() {
			if p.Match(int32(c)) != strMatch(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripAll is the property-based sweep across encodings.
func TestQuickRoundTripAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := genVals(rng, rng.Intn(600)+1)
		for _, enc := range allEncoders() {
			blk := enc(vals)
			got := blk.AppendTo(nil)
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterSetEquivalence: FilterSet on every encoding agrees with a naive
// membership test over the decoded values, at aligned and unaligned bases.
func TestFilterSetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, enc := range allEncoders() {
		for trial := 0; trial < 30; trial++ {
			vals := genVals(rng, rng.Intn(400)+1)
			blk := enc(vals)
			checkFilterSet(t, name, trial, blk, vals, rng)
		}
	}
}

// TestKernelEquivalence: AggSelect / GatherSelect / FilterFunc on every
// encoding agree with straight loops over the decoded values, at aligned
// and unaligned bases, under random selection densities including empty and
// full (mirrors TestFilterSetEquivalence).
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for name, enc := range allEncoders() {
		for trial := 0; trial < 30; trial++ {
			vals := genVals(rng, rng.Intn(400)+1)
			checkKernels(t, name, trial, enc(vals), vals, rng)
		}
	}
}

func checkKernels(t *testing.T, name string, trial int, blk IntBlock, vals []int32, rng *rand.Rand) {
	t.Helper()
	n := len(vals)
	density := rng.Intn(4) // 0: empty, 1: sparse, 2: dense, 3: full
	for _, base := range []int{0, 64, 13} {
		sel := bitmap.New(base + n)
		for i := 0; i < n; i++ {
			switch density {
			case 1:
				if rng.Intn(8) == 0 {
					sel.Set(base + i)
				}
			case 2:
				if rng.Intn(8) != 0 {
					sel.Set(base + i)
				}
			case 3:
				sel.Set(base + i)
			}
		}
		selected := func(i int) bool { return sel.Get(base + i) }

		want := NewAggAcc()
		for i, v := range vals {
			if selected(i) {
				want.observe(v, 1)
			}
		}
		got := NewAggAcc()
		blk.AggSelect(sel, base, &got)
		if got != want {
			t.Fatalf("%s trial %d base %d density %d: AggSelect=%+v oracle=%+v",
				name, trial, base, density, got, want)
		}

		var wantVals []int32
		for i, v := range vals {
			if selected(i) {
				wantVals = append(wantVals, v)
			}
		}
		gotVals := blk.GatherSelect(sel, base, nil)
		if len(gotVals) != len(wantVals) {
			t.Fatalf("%s trial %d base %d: GatherSelect len=%d want %d",
				name, trial, base, len(gotVals), len(wantVals))
		}
		for k := range wantVals {
			if gotVals[k] != wantVals[k] {
				t.Fatalf("%s trial %d base %d: GatherSelect[%d]=%d want %d",
					name, trial, base, k, gotVals[k], wantVals[k])
			}
		}
	}

	// FilterFunc against an arbitrary closure (a hash-set membership stand-in).
	pivot := int32(0)
	if n > 0 {
		pivot = vals[rng.Intn(n)]
	}
	match := func(v int32) bool { return v == pivot || v%5 == 2 }
	for _, base := range []int{0, 64, 13} {
		bm := bitmap.New(base + n + 5)
		blk.FilterFunc(match, base, bm)
		for i, v := range vals {
			if bm.Get(base+i) != match(v) {
				t.Fatalf("%s trial %d base %d: FilterFunc pos %d val %d got %v want %v",
					name, trial, base, i, v, bm.Get(base+i), match(v))
			}
		}
		for i := 0; i < base; i++ {
			if bm.Get(i) {
				t.Fatalf("%s base %d: FilterFunc stray bit below base at %d", name, base, i)
			}
		}
	}

	// nil selection == everything selected.
	wantAll := NewAggAcc()
	for _, v := range vals {
		wantAll.observe(v, 1)
	}
	gotAll := NewAggAcc()
	blk.AggSelect(nil, 0, &gotAll)
	if gotAll != wantAll {
		t.Fatalf("%s trial %d: AggSelect(nil)=%+v oracle=%+v", name, trial, gotAll, wantAll)
	}
	all := blk.GatherSelect(nil, 0, nil)
	if len(all) != n {
		t.Fatalf("%s trial %d: GatherSelect(nil) len=%d want %d", name, trial, len(all), n)
	}
	for i := range vals {
		if all[i] != vals[i] {
			t.Fatalf("%s trial %d: GatherSelect(nil)[%d]=%d want %d", name, trial, i, all[i], vals[i])
		}
	}
}

func checkFilterSet(t *testing.T, name string, trial int, blk IntBlock, vals []int32, rng *rand.Rand) {
	t.Helper()
	// Build a random membership set around the value range, anchored at a
	// random offset so out-of-window values are exercised.
	mn, mx := minMax(vals)
	setMin := mn - rng.Int31n(5)
	width := int(mx-setMin) + 1 - rng.Intn(3) // sometimes truncate the window
	if width < 1 {
		width = 1
	}
	set := bitmap.New(width)
	for i := 0; i < width; i++ {
		if rng.Intn(3) == 0 {
			set.Set(i)
		}
	}
	for _, base := range []int{0, 64, 13} {
		bm := bitmap.New(base + len(vals) + 5)
		blk.FilterSet(set, setMin, base, bm)
		for i, v := range vals {
			want := setContains(set, setMin, v)
			if bm.Get(base+i) != want {
				t.Fatalf("%s trial %d base %d: pos %d val %d got %v want %v",
					name, trial, base, i, v, bm.Get(base+i), want)
			}
		}
		for i := 0; i < base; i++ {
			if bm.Get(i) {
				t.Fatalf("%s base %d: stray bit below base at %d", name, base, i)
			}
		}
	}
}
