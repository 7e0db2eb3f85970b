package colstore

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/vector"
)

func seqCol(n int, runLen int, compressed bool, sorted SortKind) (*Column, []int32) {
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i / runLen)
	}
	return NewColumn("c", vals, nil, sorted, compressed), vals
}

func TestColumnBasics(t *testing.T) {
	c, vals := seqCol(200000, 1000, true, PrimarySort)
	if c.NumRows() != len(vals) {
		t.Fatalf("NumRows=%d", c.NumRows())
	}
	if c.NumBlocks() != (len(vals)+BlockSize-1)/BlockSize {
		t.Fatalf("NumBlocks=%d", c.NumBlocks())
	}
	for _, i := range []int32{0, 999, 1000, 65535, 65536, 199999} {
		if c.Get(i) != vals[i] {
			t.Fatalf("Get(%d)=%d want %d", i, c.Get(i), vals[i])
		}
	}
	if c.CompressedBytes() >= c.RawBytes() {
		t.Fatalf("sorted column did not compress: %d vs %d", c.CompressedBytes(), c.RawBytes())
	}
}

func TestDecodeAll(t *testing.T) {
	c, vals := seqCol(100000, 7, true, Unsorted)
	var st iosim.Stats
	got := c.DecodeAll(nil, &st)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("DecodeAll[%d]=%d want %d", i, got[i], vals[i])
		}
	}
	if st.BytesRead != c.CompressedBytes() {
		t.Fatalf("I/O charged %d, want %d", st.BytesRead, c.CompressedBytes())
	}
}

func TestFilterSortedFastPath(t *testing.T) {
	c, vals := seqCol(200000, 1000, true, PrimarySort)
	var st iosim.Stats
	pos := c.Filter(compress.Between(10, 19), &st)
	if pos.Kind != vector.PosRange {
		t.Fatalf("sorted filter kind = %v, want range", pos.Kind)
	}
	if pos.Start != 10000 || pos.End != 20000 {
		t.Fatalf("range [%d,%d), want [10000,20000)", pos.Start, pos.End)
	}
	// Fast path should read far less than the whole column.
	if st.BytesRead >= c.CompressedBytes() {
		t.Fatalf("sorted filter read %d bytes, whole column is %d", st.BytesRead, c.CompressedBytes())
	}
	_ = vals
	// Empty result.
	pos = c.Filter(compress.Eq(1<<30), &st)
	if pos.Len() != 0 {
		t.Fatalf("absent value matched %d positions", pos.Len())
	}
}

// TestFilterEmptyAndInvertedIntervals: an empty IN renders the interval
// (0, -1) and BETWEEN 9 AND 3 is legal SQL; both must match nothing on the
// sorted fast path and on a block scan, where the value range (negative
// minimum included) straddles the inverted bounds so zone maps cannot prune.
func TestFilterEmptyAndInvertedIntervals(t *testing.T) {
	vals := make([]int32, 150000)
	for i := range vals {
		vals[i] = int32(i/1000) - 20 // -20..129, sorted
	}
	shuffled := append([]int32(nil), vals...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []*Column{
		NewColumn("sorted", vals, nil, PrimarySort, true),
		NewColumn("unsorted", shuffled, nil, Unsorted, true),
		NewColumn("plain", shuffled, nil, Unsorted, false),
	} {
		for _, p := range []compress.Pred{compress.In(), compress.Between(9, 3), compress.Between(-4, -5), compress.Lt(-1 << 31)} {
			var st iosim.Stats
			if pos := c.Filter(p, &st); pos.Len() != 0 {
				t.Errorf("%s: %v %d..%d matched %d positions, want none", c.Name, p.Op, p.A, p.B, pos.Len())
			}
		}
	}
}

func TestFilterUnsortedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int32, 150000)
	for i := range vals {
		vals[i] = rng.Int31n(50)
	}
	for _, compressed := range []bool{true, false} {
		c := NewColumn("q", vals, nil, Unsorted, compressed)
		var st iosim.Stats
		pos := c.Filter(compress.Between(10, 20), &st)
		want := 0
		for _, v := range vals {
			if v >= 10 && v <= 20 {
				want++
			}
		}
		if pos.Len() != want {
			t.Fatalf("compressed=%v: matched %d want %d", compressed, pos.Len(), want)
		}
		if st.BytesRead != c.CompressedBytes() {
			t.Fatalf("compressed=%v: full scan should charge full column (got %d want %d)",
				compressed, st.BytesRead, c.CompressedBytes())
		}
	}
}

func TestBlockPruningSkipsIO(t *testing.T) {
	// Values grouped so most blocks exclude the predicate by min/max.
	vals := make([]int32, 4*BlockSize)
	for i := range vals {
		vals[i] = int32(i / BlockSize * 100) // blocks have values 0,100,200,300
	}
	c := NewColumn("p", vals, nil, Unsorted, false)
	var st iosim.Stats
	pos := c.Filter(compress.Eq(200), &st)
	if pos.Len() != BlockSize {
		t.Fatalf("matched %d want %d", pos.Len(), BlockSize)
	}
	if st.BytesRead != int64(BlockSize)*4 {
		t.Fatalf("pruning failed: read %d bytes, want one block (%d)", st.BytesRead, BlockSize*4)
	}
}

func TestFilterAtPipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 120000
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = rng.Int31n(10)
		b[i] = rng.Int31n(10)
	}
	ca := NewColumn("a", a, nil, Unsorted, true)
	cb := NewColumn("b", b, nil, Unsorted, true)
	var st iosim.Stats
	p1 := ca.Filter(compress.Eq(3), &st)
	p2 := cb.FilterAt(compress.Eq(7), p1, &st)
	want := 0
	for i := range a {
		if a[i] == 3 && b[i] == 7 {
			want++
		}
	}
	if p2.Len() != want {
		t.Fatalf("pipelined matched %d want %d", p2.Len(), want)
	}
	// FilterAt result must be a subset of candidates.
	bm1 := p1.ToBitmap(n)
	bad := false
	p2.ForEach(func(pos int32) {
		if !bm1.Get(int(pos)) {
			bad = true
		}
	})
	if bad {
		t.Fatal("FilterAt produced positions outside candidates")
	}
}

func TestGather(t *testing.T) {
	c, vals := seqCol(150000, 3, true, Unsorted)
	positions := []int32{0, 1, 2, 65535, 65536, 149999}
	var st iosim.Stats
	got := c.Gather(vector.NewExplicitPositions(positions), nil, &st)
	for k, p := range positions {
		if got[k] != vals[p] {
			t.Fatalf("Gather[%d]=%d want %d", k, got[k], vals[p])
		}
	}
	if st.BytesRead == 0 {
		t.Fatal("Gather charged no I/O")
	}
	// Gathering from one block must not charge the whole column.
	st.Reset()
	c.Gather(vector.NewExplicitPositions([]int32{5}), nil, &st)
	if st.BytesRead >= c.CompressedBytes() {
		t.Fatalf("single-block gather read %d of %d", st.BytesRead, c.CompressedBytes())
	}
}

func TestGatherRangePositions(t *testing.T) {
	c, vals := seqCol(100000, 10, true, PrimarySort)
	got := c.Gather(vector.NewRangePositions(65530, 65545), nil, nil)
	if len(got) != 15 {
		t.Fatalf("gather range len=%d", len(got))
	}
	for k := 0; k < 15; k++ {
		if got[k] != vals[65530+k] {
			t.Fatalf("gather range [%d]=%d want %d", k, got[k], vals[65530+k])
		}
	}
}

func TestStringColumnWithDict(t *testing.T) {
	raw := []string{"ASIA", "EUROPE", "ASIA", "AFRICA", "ASIA"}
	d := compress.BuildDict(raw)
	codes := d.Encode(raw, nil)
	c := NewColumn("region", codes, d, Unsorted, true)
	p := d.EncodePred(compress.OpEq, "ASIA", "", nil)
	pos := c.Filter(p, nil)
	if pos.Len() != 3 {
		t.Fatalf("ASIA matched %d want 3", pos.Len())
	}
	if c.ValueString(0) != "ASIA" || c.ValueString(1) != "EUROPE" {
		t.Fatal("ValueString via dict wrong")
	}
	cInt := NewColumn("k", []int32{42}, nil, Unsorted, true)
	if cInt.ValueString(0) != "42" {
		t.Fatal("ValueString without dict wrong")
	}
}

// TestEncodingSummaryListsEveryEncoding: a table with one column per live
// encoding reports each exactly once, on its own column's line. (The summary
// used to iterate a hand-written encoding list that had already fallen one
// member behind the enum.)
func TestEncodingSummaryListsEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	constant, narrow, wide := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		constant[i] = 7
		narrow[i] = rng.Int31n(11)
		wide[i] = rng.Int31() - rng.Int31()
	}
	tb := NewTable("t")
	tb.AddColumn(NewColumn("a_wide", wide, nil, Unsorted, true))
	tb.AddColumn(NewColumn("b_constant", constant, nil, Unsorted, true))
	tb.AddColumn(NewColumn("c_narrow", narrow, nil, Unsorted, true))
	lines := tb.EncodingSummary()
	if len(lines) != 3 {
		t.Fatalf("EncodingSummary has %d lines, want 3: %q", len(lines), lines)
	}
	for i, enc := range []compress.Encoding{compress.Plain, compress.RLE, compress.BitPack} {
		want := "[" + enc.String() + " x1]"
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want it to contain %q", i, lines[i], want)
		}
		for j, line := range lines {
			if j != i && strings.Contains(line, enc.String()+" x") {
				t.Errorf("%v also shows on line %d: %q", enc, j, line)
			}
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("fact")
	tb.AddColumn(NewColumn("a", []int32{1, 2, 3}, nil, Unsorted, true))
	tb.AddColumn(NewColumn("b", []int32{4, 5, 6}, nil, Unsorted, true))
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows=%d", tb.NumRows())
	}
	if _, err := tb.Column("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Column("zz"); err == nil {
		t.Fatal("missing column should error")
	}
	if !tb.HasColumn("b") || tb.HasColumn("zz") {
		t.Fatal("HasColumn wrong")
	}
	if len(tb.ColumnNames()) != 2 {
		t.Fatal("ColumnNames wrong")
	}
	if tb.RawBytes() != 24 {
		t.Fatalf("RawBytes=%d", tb.RawBytes())
	}
	if len(tb.EncodingSummary()) != 2 {
		t.Fatal("EncodingSummary wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched length should panic")
		}
	}()
	tb.AddColumn(NewColumn("c", []int32{1}, nil, Unsorted, true))
}

func TestTableDuplicatePanics(t *testing.T) {
	tb := NewTable("x")
	tb.AddColumn(NewColumn("a", []int32{1}, nil, Unsorted, true))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column should panic")
		}
	}()
	tb.AddColumn(NewColumn("a", []int32{2}, nil, Unsorted, true))
}

func TestMustColumnPanics(t *testing.T) {
	tb := NewTable("x")
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumn on missing column should panic")
		}
	}()
	tb.MustColumn("nope")
}

func TestBlobTable(t *testing.T) {
	bt := NewBlobTable("rowmv", [][]byte{[]byte("abc"), []byte("defg")})
	if bt.NumRows() != 2 || bt.Bytes() != 7 {
		t.Fatalf("blob table rows=%d bytes=%d", bt.NumRows(), bt.Bytes())
	}
}

// TestQuickFilterOracle cross-checks Filter against a naive scan for random
// columns, predicates, compression settings and sort kinds.
func TestQuickFilterOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5000) + 1
		vals := make([]int32, n)
		sorted := Unsorted
		if rng.Intn(2) == 0 {
			v := int32(0)
			for i := range vals {
				if rng.Intn(4) == 0 {
					v++
				}
				vals[i] = v
			}
			sorted = PrimarySort
		} else {
			for i := range vals {
				vals[i] = rng.Int31n(100)
			}
		}
		var p compress.Pred
		switch rng.Intn(3) {
		case 0:
			p = compress.Eq(vals[rng.Intn(n)])
		case 1:
			a, b := vals[rng.Intn(n)], vals[rng.Intn(n)]
			if a > b {
				a, b = b, a
			}
			p = compress.Between(a, b)
		default:
			p = compress.Ge(vals[rng.Intn(n)])
		}
		c := NewColumn("c", vals, nil, sorted, rng.Intn(2) == 0)
		got := c.Filter(p, nil).ToSlice(nil)
		var want []int32
		for i, v := range vals {
			if p.Match(v) {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGatherOracle cross-checks Gather against direct indexing.
func TestQuickGatherOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200000) + 1
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int31n(1000)
		}
		c := NewColumn("c", vals, nil, Unsorted, rng.Intn(2) == 0)
		var idx []int32
		for i := 0; i < n; i += rng.Intn(1000) + 1 {
			idx = append(idx, int32(i))
		}
		got := c.Gather(vector.NewExplicitPositions(idx), nil, nil)
		for k, i := range idx {
			if got[k] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherBlockMatchesGather: block-local gather returns the same values
// as the whole-column positional gather, and charges positional I/O.
func TestGatherBlockMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := BlockSize + 1234
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = rng.Int31n(5000)
	}
	c := NewColumn("c", vals, nil, Unsorted, true)
	// Scattered positions across both blocks.
	var pos []int32
	for p := int32(7); p < int32(n); p += 997 {
		pos = append(pos, p)
	}
	var stWant iosim.Stats
	want := c.Gather(vector.NewExplicitPositions(pos), nil, &stWant)
	var got []int32
	var stGot iosim.Stats
	var idx []int32
	for bi := 0; bi < c.NumBlocks(); bi++ {
		base := int32(bi) * BlockSize
		idx = idx[:0]
		for _, p := range pos {
			if p >= base && p < base+int32(c.BlockLen(bi)) {
				idx = append(idx, p-base)
			}
		}
		got = c.GatherBlock(bi, idx, got, &stGot)
	}
	if len(got) != len(want) {
		t.Fatalf("GatherBlock returned %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GatherBlock[%d] = %d want %d", i, got[i], want[i])
		}
	}
	if stGot.BytesRead != stWant.BytesRead {
		t.Fatalf("GatherBlock charged %d bytes, Gather charged %d", stGot.BytesRead, stWant.BytesRead)
	}
	if stGot.BytesRead == 0 {
		t.Fatal("no positional I/O charged")
	}
}

// TestColumnMinMax: column-wide stats equal the true extrema and charge no
// I/O.
func TestColumnMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	vals := make([]int32, BlockSize+99)
	for i := range vals {
		vals[i] = rng.Int31n(1<<20) - 500
	}
	c := NewColumn("c", vals, nil, Unsorted, true)
	wantMn, wantMx := vals[0], vals[0]
	for _, v := range vals {
		if v < wantMn {
			wantMn = v
		}
		if v > wantMx {
			wantMx = v
		}
	}
	mn, mx := c.MinMax()
	if mn != wantMn || mx != wantMx {
		t.Fatalf("MinMax = (%d, %d) want (%d, %d)", mn, mx, wantMn, wantMx)
	}
}
