package exec

import (
	"path/filepath"
	"testing"

	"repro/internal/iosim"
	"repro/internal/rowexec"
	"repro/internal/segstore"
	"repro/internal/sql"
	"repro/internal/ssb"
)

// diffTrials is the number of seeded random ad-hoc queries the differential
// harness executes against every engine.
const diffTrials = 220

// diffSeedBase pins the seed sequence so a reported failure reproduces with
// `ssb-fuzz -seed <n> -n 1` or `ssb-query -sql '<printed SQL>' -verify`.
const diffSeedBase int64 = 2026_0728_0000

// segBackedDB round-trips db through a segment file in a temp dir and opens
// it behind a buffer pool with the given byte budget.
func segBackedDB(t *testing.T, db *DB, sf float64, budget int64) (*DB, *segstore.Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "diff.seg")
	if err := SaveSegments(path, sf, db); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}
	store, err := segstore.Open(path, budget)
	if err != nil {
		t.Fatalf("segstore.Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	segDB, err := OpenSegmentDB(store)
	if err != nil {
		t.Fatalf("OpenSegmentDB: %v", err)
	}
	return segDB, store
}

// TestDifferential is the cross-engine differential harness: seeded random
// ad-hoc queries run through the brute-force reference, the per-probe
// column pipeline, the fused pipeline at 1 and 8 workers, the segment-
// store-backed engines (same queries over a buffer pool small enough to
// force eviction churn), the row-store engines, and the pre-joined table in
// its three modes wherever its schema covers the plan, and every result
// must be byte-identical. The fused pipeline must also report identical I/O
// accounting at every worker count (the morsel merge invariant), and the
// segment-backed fused pipeline must charge exactly the logical I/O the
// in-memory one does. Each plan additionally round-trips through the SQL
// frontend, pinning Query.SQL and the parser to the same semantics.
func TestDifferential(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	sx := rowexec.Build(data, rowexec.BuildOptions{VP: true, Indexes: true, Bitmaps: true})
	// A 256 KB budget on a ~1.2 MB compressed dataset keeps the pool under
	// real eviction pressure for the whole run.
	segDB, _ := segBackedDB(t, dbc, data.SF, 256<<10)
	pjs := []*DenormDB{BuildDenorm(data, DenormNoC), BuildDenorm(data, DenormIntC), BuildDenorm(data, DenormMaxC)}

	for i := 0; i < diffTrials; i++ {
		seed := diffSeedBase + int64(i)
		q := ssb.RandQuery(seed)
		want := ssb.Reference(data, q)

		check := func(label string, got *ssb.Result) {
			t.Helper()
			if !got.Equal(want) {
				t.Errorf("seed %d (%s): %s diverges from reference\nSQL: %s\n%s",
					seed, q.ID, label, q.SQL(), want.Diff(got))
			}
		}

		// SQL round-trip: the rendered text must compile to an equivalent
		// plan.
		parsed, err := sql.Parse(q.ID, q.SQL())
		if err != nil {
			t.Fatalf("seed %d: SQL round-trip failed to parse %q: %v", seed, q.SQL(), err)
		}
		check("sql-roundtrip(reference)", ssb.Reference(data, parsed))

		// Column per-probe pipeline.
		check("column per-probe", dbc.Run(q, FullOpt, nil))

		// Fused pipeline at 1 and 8 workers: identical results AND
		// identical I/O accounting.
		cfg1, cfg8 := FusedOpt, FusedOpt
		cfg1.Workers, cfg8.Workers = 1, 8
		var st1, st8 iosim.Stats
		check("fused workers=1", dbc.Run(q, cfg1, &st1))
		check("fused workers=8", dbc.Run(q, cfg8, &st8))
		if st1 != st8 {
			t.Errorf("seed %d (%s): fused I/O accounting depends on worker count: %+v vs %+v\nSQL: %s",
				seed, q.ID, st1, st8, q.SQL())
		}

		// Segment-backed engines: per-probe and fused over pool-loaded
		// blocks, with the fused run's logical I/O matching the
		// in-memory pipeline byte for byte (pool hits/misses are
		// physical-side accounting and must not leak into it).
		var stSeg iosim.Stats
		check("segstore per-probe", segDB.Run(q, FullOpt, nil))
		check("segstore fused workers=8", segDB.Run(q, cfg8, &stSeg))
		if stSeg != st8 {
			t.Errorf("seed %d (%s): segment-backed fused logical I/O %+v differs from in-memory %+v\nSQL: %s",
				seed, q.ID, stSeg, st8, q.SQL())
		}

		// Kernels-off ablation: results must stay bit-identical with the
		// encoding-native kernels disabled, and the kernels-off fused
		// pipeline must keep its own worker-count and storage-backend I/O
		// invariants. (The two modes may legally charge different I/O —
		// kernel charging depends only on the block and its selection —
		// but each mode's accounting is storage-invariant.)
		nkFull := FullOpt
		nkFull.NoKernels = true
		check("column per-probe kernels-off", dbc.Run(q, nkFull, nil))
		nk1, nk8 := cfg1, cfg8
		nk1.NoKernels, nk8.NoKernels = true, true
		var stNk1, stNk8, stNkSeg iosim.Stats
		check("fused kernels-off workers=1", dbc.Run(q, nk1, &stNk1))
		check("fused kernels-off workers=8", dbc.Run(q, nk8, &stNk8))
		if stNk1 != stNk8 {
			t.Errorf("seed %d (%s): kernels-off fused I/O accounting depends on worker count: %+v vs %+v\nSQL: %s",
				seed, q.ID, stNk1, stNk8, q.SQL())
		}
		check("segstore fused kernels-off", segDB.Run(q, nk8, &stNkSeg))
		if stNkSeg != stNk8 {
			t.Errorf("seed %d (%s): segment-backed kernels-off fused logical I/O %+v differs from in-memory %+v\nSQL: %s",
				seed, q.ID, stNkSeg, stNk8, q.SQL())
		}

		// Row store: the traditional design on every trial, the heavier
		// designs on a rotating subset to bound test time.
		check("rowexec T", sx.Run(q, rowexec.Traditional, nil))
		switch i % 4 {
		case 0:
			check("rowexec T(B)", sx.Run(q, rowexec.TraditionalBitmap, nil))
		case 1:
			check("rowexec VP", sx.Run(q, rowexec.VerticalPartitioning, nil))
		case 2:
			check("rowexec AI", sx.Run(q, rowexec.AllIndexes, nil))
		}

		for _, pj := range pjs {
			if pj.Supports(q) {
				check(pj.Mode.String(), pj.Run(q, nil))
			}
		}
	}
}

// TestDifferentialMultiAggShapes pins a few hand-picked generalized plans —
// multi-aggregate lists, COUNT-only, MIN/MAX over expressions, empty
// results — across the four engine families.
func TestDifferentialMultiAggShapes(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	sx := rowexec.Build(data, rowexec.BuildOptions{})

	queries := []*ssb.Query{
		{
			ID: "multi-1",
			Aggs: []ssb.AggSpec{
				{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}},
				{Func: ssb.FuncCount},
				{Func: ssb.FuncMin, Expr: ssb.AggExpr{ColA: "quantity"}},
				{Func: ssb.FuncMax, Expr: ssb.AggExpr{ColA: "extendedprice", Op: '*', ColB: "discount"}},
			},
			DimFilters: []ssb.DimFilter{
				{Dim: ssb.DimDate, Col: "year", Op: ssb.QueryByID("1.1").DimFilters[0].Op, IsInt: true, IntA: 1995},
			},
			GroupBy: []ssb.GroupCol{{Dim: ssb.DimSupplier, Col: "region"}},
		},
		{
			ID:   "count-only",
			Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}},
		},
		{
			ID: "empty-result",
			Aggs: []ssb.AggSpec{
				{Func: ssb.FuncMin, Expr: ssb.AggExpr{ColA: "revenue"}},
				{Func: ssb.FuncCount},
			},
			DimFilters: []ssb.DimFilter{
				{Dim: ssb.DimCustomer, Col: "nation", Op: ssb.QueryByID("3.2").DimFilters[0].Op, StrA: "NO SUCH NATION"},
			},
		},
		{
			ID: "empty-grouped",
			Aggs: []ssb.AggSpec{
				{Func: ssb.FuncMax, Expr: ssb.AggExpr{ColA: "supplycost"}},
			},
			DimFilters: []ssb.DimFilter{
				{Dim: ssb.DimPart, Col: "brand1", Op: ssb.QueryByID("2.3").DimFilters[0].Op, StrA: "MFGR#9999"},
			},
			GroupBy: []ssb.GroupCol{{Dim: ssb.DimDate, Col: "year"}},
		},
	}
	for _, q := range queries {
		want := ssb.Reference(data, q)
		w8, nkFull, nkFused, nkW8 := FusedOpt, FullOpt, FusedOpt, FusedOpt
		w8.Workers, nkW8.Workers = 8, 8
		nkFull.NoKernels, nkFused.NoKernels, nkW8.NoKernels = true, true, true
		for _, c := range []Config{FullOpt, nkFull, FusedOpt, w8, nkFused, nkW8} {
			if got := dbc.Run(q, c, nil); !got.Equal(want) {
				t.Errorf("%s [%s fused=%v workers=%d]: diverges\n%s", q.ID, c.Code(), c.Fused, c.Workers, want.Diff(got))
			}
		}
		if got := sx.Run(q, rowexec.Traditional, nil); !got.Equal(want) {
			t.Errorf("%s [rowexec T]: diverges\n%s", q.ID, want.Diff(got))
		}
	}
}

// TestKernelsAvoidDecoding pins, as exact counters, what operating directly
// on compressed blocks buys: each engine against its NoKernels twin on the
// flight 1 plans, where the orderdate-sorted store leaves most qualifying
// blocks fully covered. With only the dimension filter and a one-operand
// SUM(revenue), the aggregate folds inside the wire encoding and almost
// nothing is materialized; the canonical two-operand
// SUM(extendedprice*discount) must gather both inputs in every mode, so the
// kernels buy parity there, not a win. iosim.Stats.DecodedBytes is the only
// meter of this, and a Config.NoKernels that is ignored makes the two modes
// equal on the first table.
func TestKernelsAvoidDecoding(t *testing.T) {
	for _, tc := range []struct {
		id            string
		dimOn, dimOff int64 // dimension filter only, SUM(revenue)
		canonical     int64 // the SSBM query as written, either mode
	}{
		{"1.1", 0, 68924, 106628},
		{"1.2", 0, 5796, 8020},
		{"1.3", 196, 1340, 1680},
	} {
		q := ssb.QueryByID(tc.id)
		dimOnly := &ssb.Query{
			ID:         tc.id + "-dim-sum-revenue",
			Aggs:       []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}},
			DimFilters: q.DimFilters,
		}
		for _, on := range []Config{FullOpt, FusedOpt} {
			off := on
			off.NoKernels = true
			for _, p := range []struct {
				q               *ssb.Query
				wantOn, wantOff int64
			}{
				{dimOnly, tc.dimOn, tc.dimOff},
				{q, tc.canonical, tc.canonical},
			} {
				var stOn, stOff iosim.Stats
				resOn := testDBC.Run(p.q, on, &stOn)
				resOff := testDBC.Run(p.q, off, &stOff)
				if !resOn.Equal(resOff) {
					t.Errorf("%s [%s fused=%v]: kernels changed the result\n%s", p.q.ID, on.Code(), on.Fused, resOff.Diff(resOn))
				}
				if stOn.DecodedBytes != p.wantOn || stOff.DecodedBytes != p.wantOff {
					t.Errorf("%s [%s fused=%v]: decoded %d B with kernels, %d B without; want %d and %d",
						p.q.ID, on.Code(), on.Fused, stOn.DecodedBytes, stOff.DecodedBytes, p.wantOn, p.wantOff)
				}
			}
		}
	}
}
