package exec

import (
	"context"
	"testing"

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
