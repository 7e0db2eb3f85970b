package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/ssb"
	"repro/internal/vector"
)

const testSF = 0.02

var (
	testData    = ssb.Generate(testSF)
	testDBC     = BuildDB(testData, true)  // compressed storage
	testDBPlain = BuildDB(testData, false) // uncompressed storage
)

// wideGroupPlans are two three-way groupings whose composite group space
// outgrows anything the thirteen queries reach. customer.name x part.name x
// date.date is past denseLimit at every scale factor the tests use, so it
// aggregates by hash; c_city x s_city x p_brand1 is past it from SF=0.02 and
// sits in the one-worker band (fusedWorkerDenseLimit..denseLimit) below.
func wideGroupPlans() []*ssb.Query {
	return []*ssb.Query{
		{ID: "wide-names", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "name"}, {Dim: ssb.DimPart, Col: "name"}, {Dim: ssb.DimDate, Col: "date"}}},
		{ID: "wide-cities", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "city"}, {Dim: ssb.DimSupplier, Col: "city"}, {Dim: ssb.DimPart, Col: "brand1"}}},
	}
}

func dbFor(cfg Config) *DB {
	if cfg.Compression {
		return testDBC
	}
	return testDBPlain
}

// TestAllConfigsMatchReference is the backbone correctness check: every
// Figure 7 configuration must return exactly the reference result on all
// thirteen queries.
func TestAllConfigsMatchReference(t *testing.T) {
	for _, q := range ssb.Queries() {
		want := ssb.Reference(testData, q)
		for _, cfg := range Figure7Configs() {
			var st iosim.Stats
			got := dbFor(cfg).Run(q, cfg, &st)
			if !got.Equal(want) {
				t.Errorf("Q%s config %s: results differ\n%s", q.ID, cfg.Code(), want.Diff(got))
			}
			if st.BytesRead == 0 {
				t.Errorf("Q%s config %s: no I/O charged", q.ID, cfg.Code())
			}
		}
	}
}

// TestCompressionFlagsOrthogonal runs the remaining flag combinations not in
// Figure 7 (e.g. block iteration off but invisible join on with plain
// storage) to ensure flags compose safely.
func TestCompressionFlagsOrthogonal(t *testing.T) {
	extra := []Config{
		{BlockIter: true, InvisibleJoin: true, Compression: false, LateMat: true},  // tIcL
		{BlockIter: false, InvisibleJoin: true, Compression: false, LateMat: true}, // TIcL
		{BlockIter: true, InvisibleJoin: false, Compression: true, LateMat: false}, // ticl... early mat w/ compression
		{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: false},  // IJ flag ignored under early mat
	}
	for _, q := range ssb.Queries() {
		want := ssb.Reference(testData, q)
		for _, cfg := range extra {
			got := dbFor(cfg).Run(q, cfg, nil)
			if !got.Equal(want) {
				t.Errorf("Q%s config %s: results differ\n%s", q.ID, cfg.Code(), want.Diff(got))
			}
		}
	}
}

func TestRowMVMatchesReference(t *testing.T) {
	for flight := 1; flight <= 4; flight++ {
		mv := testDBC.BuildRowMV(flight)
		for _, q := range ssb.Queries() {
			if q.Flight != flight {
				continue
			}
			want := ssb.Reference(testData, q)
			var st iosim.Stats
			got, err := testDBC.RunRowMV(q, mv, &st)
			if err != nil {
				t.Fatalf("Q%s Row-MV: %v", q.ID, err)
			}
			if !got.Equal(want) {
				t.Errorf("Q%s Row-MV: results differ\n%s", q.ID, want.Diff(got))
			}
			if st.BytesRead < mv.Blob.Bytes() {
				t.Errorf("Q%s Row-MV: charged %d bytes, blob is %d", q.ID, st.BytesRead, mv.Blob.Bytes())
			}
		}
	}
}

func TestDenormMatchesReference(t *testing.T) {
	for _, mode := range []DenormMode{DenormNoC, DenormIntC, DenormMaxC} {
		db := BuildDenorm(testData, mode)
		for _, q := range ssb.Queries() {
			want := ssb.Reference(testData, q)
			var st iosim.Stats
			got := db.Run(q, &st)
			if !got.Equal(want) {
				t.Errorf("Q%s %v: results differ\n%s", q.ID, mode, want.Diff(got))
			}
		}
	}
}

func TestDenormSizesOrdered(t *testing.T) {
	noc := BuildDenorm(testData, DenormNoC)
	intc := BuildDenorm(testData, DenormIntC)
	maxc := BuildDenorm(testData, DenormMaxC)
	if !(noc.Bytes() > intc.Bytes() && intc.Bytes() > maxc.Bytes()) {
		t.Fatalf("denorm sizes not ordered: NoC=%d IntC=%d MaxC=%d",
			noc.Bytes(), intc.Bytes(), maxc.Bytes())
	}
}

func TestConfigCodes(t *testing.T) {
	if FullOpt.Code() != "tICL" {
		t.Fatalf("FullOpt code = %s", FullOpt.Code())
	}
	want := []string{"tICL", "TICL", "tiCL", "TiCL", "ticL", "TicL", "Ticl"}
	for i, cfg := range Figure7Configs() {
		if cfg.Code() != want[i] {
			t.Fatalf("config %d code = %s want %s", i, cfg.Code(), want[i])
		}
	}
}

func TestBetweenPredicateRewritingFires(t *testing.T) {
	// Supplier region = 'ASIA' on a hierarchy-sorted dimension must
	// produce a contiguous range and therefore a between predicate.
	probe := testDBC.dimProbe(ssb.DimSupplier,
		[]ssb.DimFilter{{Dim: ssb.DimSupplier, Col: "region", Op: compress.OpEq, StrA: "ASIA"}},
		FullOpt, nil)
	if !probe.isPred {
		t.Fatal("region equality should rewrite to a between predicate")
	}
	if probe.pred.Op != compress.OpBetween {
		t.Fatalf("probe op = %v", probe.pred.Op)
	}
	// Verify the range covers exactly the ASIA suppliers.
	regionCol := testDBC.Dims[ssb.DimSupplier].MustColumn("region")
	asiaCode, _ := regionCol.Dict.Code("ASIA")
	n := testDBC.Dims[ssb.DimSupplier].NumRows()
	count := 0
	for i := 0; i < n; i++ {
		if regionCol.Get(int32(i)) == asiaCode {
			count++
			if int32(i) < probe.pred.A || int32(i) > probe.pred.B {
				t.Fatalf("ASIA supplier at position %d outside between range [%d,%d]", i, probe.pred.A, probe.pred.B)
			}
		}
	}
	if int(probe.pred.B-probe.pred.A)+1 != count {
		t.Fatalf("between range width %d != ASIA supplier count %d", probe.pred.B-probe.pred.A+1, count)
	}
}

func TestCityInFallsBackToHash(t *testing.T) {
	// Two cities are two non-adjacent runs -> no contiguous range -> hash.
	q := ssb.QueryByID("3.3")
	var cityFilter ssb.DimFilter
	for _, f := range q.DimFilters {
		if f.Dim == ssb.DimSupplier {
			cityFilter = f
			break
		}
	}
	probe := testDBC.dimProbe(ssb.DimSupplier, []ssb.DimFilter{cityFilter}, FullOpt, nil)
	if probe.isPred {
		// Only acceptable if one of the two cities is empty at this
		// scale (then the match set is a single contiguous run).
		cityCol := testDBC.Dims[ssb.DimSupplier].MustColumn("city")
		pred := dimFilterPred(cityCol, cityFilter)
		matches := cityCol.Filter(pred, nil).Len()
		if int(probe.pred.B-probe.pred.A)+1 < matches {
			t.Fatalf("city IN rewrote to between but range %d < matches %d", probe.pred.B-probe.pred.A+1, matches)
		}
	} else if probe.set == nil {
		t.Fatal("hash probe has no set")
	}
}

func TestDateBetweenRewriting(t *testing.T) {
	// d.year = 1993 must become a between predicate on the orderdate FK
	// values (19930101..19931231) applied via the sorted fast path.
	probe := testDBC.dimProbe(ssb.DimDate,
		[]ssb.DimFilter{{Dim: ssb.DimDate, Col: "year", Op: compress.OpEq, IsInt: true, IntA: 1993}},
		FullOpt, nil)
	if !probe.isPred || !probe.sortedFirst {
		t.Fatal("year predicate should become a sorted-first between probe")
	}
	if probe.pred.A != 19930101 || probe.pred.B != 19931231 {
		t.Fatalf("date between = [%d, %d]", probe.pred.A, probe.pred.B)
	}
	// Applying it must produce a contiguous position range.
	var st iosim.Stats
	pos := probe.apply(context.Background(), testDBC, nil, FullOpt, &st)
	if pos.Kind != vector.PosRange {
		t.Fatalf("sorted probe produced %v, want range", pos.Kind)
	}
	// The I/O charged must be far less than the whole column (only
	// boundary blocks are read).
	full := testDBC.Fact.MustColumn("orderdate").CompressedBytes()
	if st.BytesRead >= full {
		t.Fatalf("sorted probe read %d of %d", st.BytesRead, full)
	}
}

func TestInvisibleJoinReducesIO(t *testing.T) {
	q := ssb.QueryByID("3.1")
	var stI, sti iosim.Stats
	cfgI := FullOpt
	cfgi := FullOpt
	cfgi.InvisibleJoin = false
	testDBC.Run(q, cfgI, &stI)
	testDBC.Run(q, cfgi, &sti)
	if stI.BytesRead > sti.BytesRead {
		t.Fatalf("invisible join read more than hash join: %d vs %d", stI.BytesRead, sti.BytesRead)
	}
}

func TestCompressionReducesIO(t *testing.T) {
	q := ssb.QueryByID("1.1")
	var stC, stc iosim.Stats
	cfgC := Config{BlockIter: true, InvisibleJoin: false, Compression: true, LateMat: true}
	cfgc := cfgC
	cfgc.Compression = false
	testDBC.Run(q, cfgC, &stC)
	testDBPlain.Run(q, cfgc, &stc)
	if stC.BytesRead*2 > stc.BytesRead {
		t.Fatalf("compression saved too little I/O on flight 1: %d vs %d", stC.BytesRead, stc.BytesRead)
	}
}

func TestLateMatReducesIO(t *testing.T) {
	// Early materialization reads every needed column in full; late
	// materialization reads only qualifying positions of non-predicate
	// columns. Q1.1's year restriction keeps qualifying positions
	// contiguous (sorted orderdate), so the page-level savings are
	// visible even at test scale.
	q := ssb.QueryByID("1.1")
	var stL, stl iosim.Stats
	cfgL := Config{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: true}
	cfgl := cfgL
	cfgl.LateMat = false
	testDBC.Run(q, cfgL, &stL)
	testDBC.Run(q, cfgl, &stl)
	if stL.BytesRead >= stl.BytesRead {
		t.Fatalf("late materialization did not reduce I/O: %d vs %d", stL.BytesRead, stl.BytesRead)
	}
}

// TestPerProbeEmptyMatchReadsNoGroupAttributes pins where the per-probe
// engine pays for group extraction: the dimension attribute columns are read
// in phase 3, so a grouped query whose probes leave no position reads (and
// acquires from the pool) exactly what the same restriction costs ungrouped,
// under every late-materialized Figure 7 configuration. The fused engine
// extracts inside every block and loads them with the plan.
func TestPerProbeEmptyMatchReadsNoGroupAttributes(t *testing.T) {
	grouped := *ssb.QueryByID("3.2")
	grouped.DimFilters = append([]ssb.DimFilter(nil), grouped.DimFilters...)
	grouped.DimFilters[0].StrA = "NO SUCH NATION"
	ungrouped := grouped
	ungrouped.GroupBy = nil
	for _, cfg := range append(Figure7Configs(), FusedOpt) {
		if !cfg.LateMat {
			continue
		}
		var stG, stU iosim.Stats
		if res := dbFor(cfg).Run(&grouped, cfg, &stG); len(res.Rows) != 0 {
			t.Fatalf("%s: impossible filter matched %d groups", cfg.Code(), len(res.Rows))
		}
		dbFor(cfg).Run(&ungrouped, cfg, &stU)
		if cfg.FusedActive() {
			if stG.BytesRead <= stU.BytesRead {
				t.Errorf("fused: group attributes not charged with the plan: %+v vs ungrouped %+v", stG, stU)
			}
		} else if stG != stU {
			t.Errorf("%s: an empty-match grouped query charged extraction I/O\ngrouped   %+v\nungrouped %+v", cfg.Code(), stG, stU)
		}
	}
}

func TestContiguousRange(t *testing.T) {
	cases := []struct {
		pos    *vector.Positions
		lo, hi int32
		ok     bool
	}{
		{vector.NewRangePositions(3, 9), 3, 9, true},
		{vector.NewExplicitPositions([]int32{4, 5, 6}), 4, 7, true},
		{vector.NewExplicitPositions([]int32{4, 6}), 0, 0, false},
		{vector.NewExplicitPositions(nil), 0, 0, true},
	}
	for i, c := range cases {
		lo, hi, ok := contiguousRange(c.pos)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Fatalf("case %d: got (%d,%d,%v) want (%d,%d,%v)", i, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
	// Bitmap cases.
	mk := func(bits ...int) *vector.Positions {
		bm := vector.NewExplicitPositions(nil).ToBitmap(64)
		for _, b := range bits {
			bm.Set(b)
		}
		return vector.NewBitmapPositions(bm)
	}
	if lo, hi, ok := contiguousRange(mk(10, 11, 12)); !ok || lo != 10 || hi != 13 {
		t.Fatalf("bitmap contiguous: (%d,%d,%v)", lo, hi, ok)
	}
	if _, _, ok := contiguousRange(mk(10, 12)); ok {
		t.Fatal("bitmap with gap reported contiguous")
	}
	if _, _, ok := contiguousRange(mk()); !ok {
		t.Fatal("empty bitmap should be (degenerately) contiguous")
	}
}

func TestParseTuple(t *testing.T) {
	tup := make([]int32, 4)
	parseTuple([]byte("12|-7|0|2147480000"), tup)
	want := []int32{12, -7, 0, 2147480000}
	for i := range want {
		if tup[i] != want[i] {
			t.Fatalf("parseTuple[%d] = %d want %d", i, tup[i], want[i])
		}
	}
}

func TestDBShape(t *testing.T) {
	if testDBC.NumRows() != testData.NumLineorders() {
		t.Fatal("fact cardinality mismatch")
	}
	if len(testDBC.Fact.ColumnNames()) != 17 {
		t.Fatalf("fact has %d columns, want 17", len(testDBC.Fact.ColumnNames()))
	}
	// Compressed fact must be smaller than plain.
	if testDBC.Fact.CompressedBytes() >= testDBPlain.Fact.CompressedBytes() {
		t.Fatalf("compressed fact (%d) not smaller than plain (%d)",
			testDBC.Fact.CompressedBytes(), testDBPlain.Fact.CompressedBytes())
	}
	// Dimension hierarchy sort: supplier region codes ascending.
	reg := testDBC.Dims[ssb.DimSupplier].MustColumn("region")
	prev := int32(-1)
	for i := 0; i < testDBC.Dims[ssb.DimSupplier].NumRows(); i++ {
		v := reg.Get(int32(i))
		if v < prev {
			t.Fatal("supplier not sorted by region")
		}
		prev = v
	}
	// DatePos round-trips.
	dk := testDBC.Dims[ssb.DimDate].MustColumn("datekey")
	if dk.Get(testDBC.DatePos(19940214)) != 19940214 {
		t.Fatal("DatePos broken")
	}
}

func TestFactFKRemapPreservesAttributes(t *testing.T) {
	// After key reassignment, fact row i's supplier FK must point at a
	// dimension row with the same nation as the original data.
	suppNation := testDBC.Dims[ssb.DimSupplier].MustColumn("nation")
	fk := testDBC.Fact.MustColumn("suppkey")
	for i := 0; i < testDBC.NumRows(); i += 1000 {
		pos := fk.Get(int32(i))
		got := suppNation.Dict.Value(suppNation.Get(pos))
		// The fact table was re-sorted during BuildDB? No: fact order
		// comes from ssb.Data directly, so row i aligns.
		want := testData.Supplier.Nation[testData.Line.SuppKey[i]-1]
		if got != want {
			t.Fatalf("fact row %d: supplier nation %q want %q", i, got, want)
		}
	}
}

func TestExplainOutputs(t *testing.T) {
	q := ssb.QueryByID("3.1")
	out := testDBC.Explain(q, FullOpt)
	for _, want := range []string{"BETWEEN", "sorted column", "direct array extraction", "datekey lookup", "sum(lo_revenue)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain(3.1, tICL) missing %q:\n%s", want, out)
		}
	}
	// Hash fallback shows up for city IN queries.
	out = testDBC.Explain(ssb.QueryByID("3.3"), FullOpt)
	if !strings.Contains(out, "hash probe") {
		t.Errorf("Explain(3.3) should mention hash probe:\n%s", out)
	}
	// i-config switches group extraction to hash tables.
	cfg := FullOpt
	cfg.InvisibleJoin = false
	out = testDBC.Explain(q, cfg)
	if !strings.Contains(out, "via hash table") {
		t.Errorf("Explain(3.1, tiCL) should mention hash extraction:\n%s", out)
	}
	// A fused plan reports its group space beside the domains' product.
	out = testDBC.Explain(ssb.QueryByID("4.3"), FusedOpt)
	if !strings.Contains(out, "group space:") {
		t.Errorf("Explain(4.3, fused) should report the group space:\n%s", out)
	}
	// Early materialization plan.
	cfg = FullOpt
	cfg.LateMat = false
	out = testDBC.Explain(q, cfg)
	if !strings.Contains(out, "EARLY MATERIALIZATION") {
		t.Errorf("Explain(Ticl-ish) should mention early materialization:\n%s", out)
	}
}
