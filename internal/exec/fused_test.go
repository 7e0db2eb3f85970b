package exec

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// TestFusedMatchesReference: the fused pipeline returns exactly the
// reference result on all thirteen queries, on compressed and plain
// storage, with the invisible join on and off.
func TestFusedMatchesReference(t *testing.T) {
	cfgs := []Config{
		{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: true, Fused: true},
		{BlockIter: true, InvisibleJoin: false, Compression: true, LateMat: true, Fused: true},
		{BlockIter: true, InvisibleJoin: true, Compression: false, LateMat: true, Fused: true},
		{BlockIter: true, InvisibleJoin: false, Compression: false, LateMat: true, Fused: true},
	}
	for _, q := range ssb.Queries() {
		want := ssb.Reference(testData, q)
		for _, cfg := range cfgs {
			var st iosim.Stats
			got := dbFor(cfg).Run(q, cfg, &st)
			if !got.Equal(want) {
				t.Errorf("Q%s fused config %s IJ=%v C=%v: results differ\n%s",
					q.ID, cfg.Code(), cfg.InvisibleJoin, cfg.Compression, want.Diff(got))
			}
			if st.BytesRead == 0 {
				t.Errorf("Q%s fused config %s: no I/O charged", q.ID, cfg.Code())
			}
		}
	}
}

// TestFusedParallelDeterminism: all 13 SSBM queries render byte-identical
// results with Workers=1 vs Workers=8, fused vs unfused, and match the
// reference. The fused merge is commutative int64 addition over per-worker
// partials, so worker count must never show through.
func TestFusedParallelDeterminism(t *testing.T) {
	for _, q := range ssb.Queries() {
		want := ssb.Reference(testData, q)
		wantStr := want.String()
		for _, fused := range []bool{false, true} {
			var base string
			var baseIO int64
			for _, workers := range []int{1, 8} {
				cfg := FullOpt
				cfg.Fused = fused
				cfg.Workers = workers
				var st iosim.Stats
				got := testDBC.Run(q, cfg, &st)
				if !got.Equal(want) {
					t.Fatalf("Q%s fused=%v workers=%d diverges from reference:\n%s",
						q.ID, fused, workers, want.Diff(got))
				}
				if s := got.String(); s != wantStr && s == "" {
					t.Fatalf("Q%s: empty rendering", q.ID)
				} else if workers == 1 {
					base = s
					baseIO = st.BytesRead
				} else {
					if s != base {
						t.Errorf("Q%s fused=%v: workers=8 rendering differs from workers=1", q.ID, fused)
					}
					if st.BytesRead != baseIO {
						t.Errorf("Q%s fused=%v: workers=8 I/O %d != workers=1 I/O %d",
							q.ID, fused, st.BytesRead, baseIO)
					}
				}
			}
		}
	}
}

// TestFusedFlagInertWithoutBlockIter: Fused requires block iteration and
// late materialization; with either ablated the flag must not change
// results (it falls back to the faithful paths).
func TestFusedFlagInertWithoutBlockIter(t *testing.T) {
	cfgs := []Config{
		{BlockIter: false, InvisibleJoin: true, Compression: true, LateMat: true, Fused: true},
		{BlockIter: true, InvisibleJoin: false, Compression: true, LateMat: false, Fused: true},
	}
	for _, id := range []string{"1.1", "3.2", "4.3"} {
		q := ssb.QueryByID(id)
		want := ssb.Reference(testData, q)
		for _, cfg := range cfgs {
			if got := dbFor(cfg).Run(q, cfg, nil); !got.Equal(want) {
				t.Errorf("Q%s config %s Fused-inert: results differ\n%s", id, cfg.Code(), want.Diff(got))
			}
		}
	}
}

// TestFusedHashShape: a composite group space beyond the dense limit stays
// on the fused scan — one worker, whatever the config asks for, feeding the
// aggregator's hash representation — and matches the reference with
// identical I/O accounting at every configured worker count.
func TestFusedHashShape(t *testing.T) {
	filtered := *wideGroupPlans()[0]
	filtered.ID = "wide-names-199406"
	filtered.DimFilters = []ssb.DimFilter{
		{Dim: ssb.DimDate, Col: "yearmonthnum", Op: compress.OpEq, IsInt: true, IntA: 199406},
	}
	for _, q := range append(wideGroupPlans(), &filtered) {
		if space, _ := testDBC.groupSpace(q); space <= denseLimit {
			t.Fatalf("%s: group space %d fits dense arrays at SF=%g; the hash shape is not exercised", q.ID, space, testSF)
		}
		want := ssb.Reference(testData, q)
		var base iosim.Stats
		for _, workers := range []int{1, 8} {
			cfg := FusedOpt
			cfg.Workers = workers
			tr := &obs.Trace{}
			var st iosim.Stats
			got, err := testDBC.RunCtx(obs.WithTrace(context.Background(), tr), q, cfg, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s workers=%d diverges from reference:\n%s", q.ID, workers, want.Diff(got))
			}
			if tr.Engine != "fused" || tr.Workers != 1 {
				t.Errorf("%s workers=%d: trace says engine=%q workers=%d, want the fused scan on one worker",
					q.ID, workers, tr.Engine, tr.Workers)
			}
			if workers == 1 {
				base = st
			} else if st != base {
				t.Errorf("%s: I/O accounting depends on the configured worker count: %+v vs %+v", q.ID, base, st)
			}
		}
	}
}

// TestFusedDenseProbePlan: under the fused config the city-IN restriction
// must plan as a dense-bitmap probe, not a hash set.
func TestFusedDenseProbePlan(t *testing.T) {
	// The cities of the first and last supplier in sort order: both are
	// non-empty by construction and (different regions) their position
	// runs cannot be adjacent, so the probe cannot collapse to a between
	// predicate.
	cityCol := testDBC.Dims[ssb.DimSupplier].MustColumn("city")
	nSupp := int32(testDBC.Dims[ssb.DimSupplier].NumRows())
	first, last := cityCol.ValueString(0), cityCol.ValueString(nSupp-1)
	if first == last {
		t.Skip("single-city supplier dimension at this scale")
	}
	cityFilter := ssb.DimFilter{
		Dim: ssb.DimSupplier, Col: "city", Op: compress.OpIn,
		StrSet: []string{first, last},
	}
	probe := testDBC.dimProbe(ssb.DimSupplier, []ssb.DimFilter{cityFilter}, FusedOpt, nil)
	if probe.isPred {
		t.Fatal("cross-region city IN should not rewrite to a between predicate")
	}
	if probe.dense == nil {
		t.Fatal("fused config should build a dense probe set")
	}
	if probe.set != nil {
		t.Fatal("fused config should not build the hash set")
	}
	if probe.keyCount() == 0 || probe.setMax < probe.setMin {
		t.Fatalf("dense probe bounds broken: count=%d range=[%d,%d]", probe.keyCount(), probe.setMin, probe.setMax)
	}
	// Membership must agree with the per-probe hash set.
	hashProbe := testDBC.dimProbe(ssb.DimSupplier, []ssb.DimFilter{cityFilter}, FullOpt, nil)
	n := testDBC.Dims[ssb.DimSupplier].NumRows()
	for v := int32(0); v < int32(n); v++ {
		if probe.matches(v) != hashProbe.matches(v) {
			t.Fatalf("dense/hash membership disagree at key %d", v)
		}
	}
}

// TestProbeSetMinMaxPruning: a membership probe whose key range excludes
// most blocks of a sorted column must charge less I/O than the whole
// column, and still match a full-scan evaluation.
func TestProbeSetMinMaxPruning(t *testing.T) {
	col := testDBC.Fact.MustColumn("orderdate")
	if col.NumBlocks() < 2 {
		t.Skip("need at least two blocks to observe pruning")
	}
	// One datekey early in the sort order: later blocks cannot intersect.
	key := col.Get(0)
	probe := &factProbe{
		col:    col,
		set:    map[int32]struct{}{key: {}},
		setMin: key,
		setMax: key,
	}
	var st iosim.Stats
	pos := testDBC.probeSet(context.Background(), probe, nil, FullOpt, &st)
	if pos.Len() == 0 {
		t.Fatal("probe found no rows for an existing datekey")
	}
	if full := col.CompressedBytes(); st.BytesRead >= full {
		t.Fatalf("pruned probe read %d of %d column bytes", st.BytesRead, full)
	}
}

// TestFusedNoKernelsStats pins the fused pipeline under the kernels
// ablation (Config.NoKernels) at SF=0.01: only a run-length block runs a
// probe after the first over the whole block, so every other late probe
// gathers, and the iosim counts of the 13 queries stay those of the
// run-length-only gate the late-probe cost rule replaced. No iostats golden
// cell covers this configuration.
func TestFusedNoKernelsStats(t *testing.T) {
	want := map[string]iosim.Stats{
		"1.1": {BytesRead: 189508, BlocksFetched: 8, DecodedBytes: 53712, KernelFolds: 2, Gathers: 4},
		"1.2": {BytesRead: 157664, BlocksFetched: 8, DecodedBytes: 4156, KernelFolds: 2, Gathers: 4},
		"1.3": {BytesRead: 158676, BlocksFetched: 9, DecodedBytes: 900, KernelFolds: 2, Gathers: 5},
		"2.1": {BytesRead: 384016, BlocksFetched: 9, DecodedBytes: 40640, KernelFolds: 2, Gathers: 7},
		"2.2": {BytesRead: 388732, BlocksFetched: 9, DecodedBytes: 29468, KernelFolds: 2, Gathers: 7},
		"2.3": {BytesRead: 388732, BlocksFetched: 9, DecodedBytes: 26984, KernelFolds: 2, Gathers: 7},
		"3.1": {BytesRead: 386860, BlocksFetched: 15, DecodedBytes: 289652, KernelFolds: 3, Gathers: 10},
		"3.2": {BytesRead: 387128, BlocksFetched: 15, DecodedBytes: 227124, KernelFolds: 4, Gathers: 9},
		"3.3": {BytesRead: 96952, BlocksFetched: 9, BlocksPruned: 2, DecodedBytes: 219296, KernelFolds: 3, Gathers: 4},
		"3.4": {BytesRead: 65108, BlocksFetched: 9, BlocksPruned: 1, DecodedBytes: 14480, KernelFolds: 3, Gathers: 4},
		"4.1": {BytesRead: 545476, BlocksFetched: 12, DecodedBytes: 67684, KernelFolds: 3, Gathers: 9},
		"4.2": {BytesRead: 465156, BlocksFetched: 18, DecodedBytes: 113968, KernelFolds: 4, Gathers: 12},
		"4.3": {BytesRead: 404584, BlocksFetched: 18, DecodedBytes: 108544, KernelFolds: 5, Gathers: 11},
	}
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)
	cfg := FusedOpt
	cfg.NoKernels = true
	for _, q := range ssb.Queries() {
		var st iosim.Stats
		if got := db.Run(q, cfg, &st); !got.Equal(ssb.Reference(data, q)) {
			t.Errorf("Q%s fused without kernels diverges from reference", q.ID)
		}
		if st != want[q.ID] {
			t.Errorf("Q%s fused without kernels: stats\n got  %+v\n want %+v", q.ID, st, want[q.ID])
		}
	}
}

// TestLateProbeRule drives the late-probe rule (lateWholeBlock) on a
// crafted one-block fact table. tax = 1 keeps k rows spread evenly over the
// block, so the late interval probe on supplycost (bit-packed, width 17)
// sees k survivors on every page: it runs whole-block once k × gatherCost
// reaches n × intervalCost and gathers one survivor below that. A year of
// orderdate, the sort key, keeps a contiguous quarter of the block: far
// denser than the break-even, but its survivors miss pages of supplycost,
// so a whole-block read would charge bytes the gather does not, and the
// probe gathers. The choice shows in the counters: a whole-block probe
// keeps the selection a bitmap and the sum folds on it, a gather leaves an
// index list that the sum gathers at. (With the year, phase 1's filter on
// the date dimension adds one fold.)
func TestLateProbeRule(t *testing.T) {
	const n = colstore.BlockSize
	breakEven := (n*intervalCost + gatherCost - 1) / gatherCost // fewest survivors that run whole-block
	data := ssb.Generate(0.02)
	line := reflect.ValueOf(&data.Line).Elem()
	for i := range line.NumField() {
		line.Field(i).Set(line.Field(i).Slice(0, n))
	}
	for i := range data.Line.SupplyCost {
		data.Line.SupplyCost[i] = int32(i*7919) % 100_000
	}
	setTax := func(k int) {
		for i := range data.Line.Tax {
			data.Line.Tax[i] = int32(2 + i%7)
		}
		for j := range k {
			data.Line.Tax[j*n/k] = 1
		}
	}
	sumRevenue := []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}
	cost := ssb.FactFilter{Col: "supplycost", Pred: compress.Between(10_000, 90_000)}
	for _, c := range []struct {
		name        string
		k           int
		q           *ssb.Query
		folds, gath int64
	}{
		{"above break-even", breakEven, &ssb.Query{ID: "above", Aggs: sumRevenue,
			FactFilters: []ssb.FactFilter{{Col: "tax", Pred: compress.Eq(1)}, cost}}, 3, 0},
		{"below break-even", breakEven - 1, &ssb.Query{ID: "below", Aggs: sumRevenue,
			FactFilters: []ssb.FactFilter{{Col: "tax", Pred: compress.Eq(1)}, cost}}, 1, 2},
		{"pages missed", breakEven, &ssb.Query{ID: "pages", Aggs: sumRevenue,
			DimFilters:  []ssb.DimFilter{{Dim: ssb.DimDate, Col: "year", Op: compress.OpEq, IsInt: true, IntA: 1993}},
			FactFilters: []ssb.FactFilter{cost}}, 2, 2},
	} {
		setTax(c.k)
		db := BuildDB(data, true)
		if enc := db.Fact.MustColumn("supplycost").BlockEncoding(0); enc != compress.BitPack {
			t.Fatalf("supplycost block encodes as %v, want bit-packed", enc)
		}
		var st iosim.Stats
		got := db.Run(c.q, FusedOpt, &st)
		if want := ssb.Reference(data, c.q); !got.Equal(want) {
			t.Errorf("%s: diverges from reference:\n%s", c.name, want.Diff(got))
		}
		if st.KernelFolds != c.folds || st.Gathers != c.gath {
			t.Errorf("%s (%d tax survivors): %d kernel folds and %d gathers, want %d and %d",
				c.name, c.k, st.KernelFolds, st.Gathers, c.folds, c.gath)
		}
	}
}
