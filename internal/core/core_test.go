package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/segstore"
	"repro/internal/sql"
	"repro/internal/ssb"
)

var testDB = Open(0.01)

// TestEverySystemEveryQuery is the top-level integration check: all systems
// from all four figures agree with the reference on all thirteen queries.
func TestEverySystemEveryQuery(t *testing.T) {
	var systems []Config
	systems = append(systems, Figure5Systems()...)
	systems = append(systems, Figure6Systems()...)
	systems = append(systems, Figure7Systems()...)
	systems = append(systems, Figure8Systems()...)
	for _, cfg := range systems {
		for _, id := range []string{"1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3"} {
			if err := testDB.Verify(id, cfg); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

// TestSystemsAgreePairwise: spot-check that two independently implemented
// engines produce byte-identical canonical results.
func TestSystemsAgreePairwise(t *testing.T) {
	for _, id := range []string{"2.1", "3.1", "4.3"} {
		a, _, err := testDB.Run(id, ColumnStore(exec.FullOpt))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := testDB.Run(id, RowStore(rowexec.Traditional))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("Q%s: CS vs RS diverge:\n%s", id, a.Diff(b))
		}
	}
}

func TestRunStatsPopulated(t *testing.T) {
	_, stats, err := testDB.Run("1.1", ColumnStore(exec.FullOpt))
	if err != nil {
		t.Fatal(err)
	}
	if stats.IO.BytesRead == 0 {
		t.Error("no I/O recorded")
	}
	if stats.IOTime <= 0 || stats.Total < stats.Wall {
		t.Errorf("stats inconsistent: %+v", stats)
	}
}

func TestUnknownQuery(t *testing.T) {
	if _, _, err := testDB.Run("9.9", ColumnStore(exec.FullOpt)); err == nil {
		t.Fatal("unknown query should error")
	}
}

func TestLabels(t *testing.T) {
	cases := map[string]Config{
		"CS:tICL":      ColumnStore(exec.FullOpt),
		"CS(Row-MV)":   RowMV(),
		"RS:T":         RowStore(rowexec.Traditional),
		"RS:MV":        RowStore(rowexec.MaterializedViews),
		"PJ, No C":     Denormalized(exec.DenormNoC),
		"RS:T(nopart)": {Kind: KindRow, Design: rowexec.Traditional},
	}
	for want, cfg := range cases {
		if got := cfg.Label(); got != want {
			t.Errorf("Label() = %q want %q", got, want)
		}
	}
}

func TestFigureSystemCounts(t *testing.T) {
	if len(Figure5Systems()) != 4 || len(Figure6Systems()) != 5 ||
		len(Figure7Systems()) != 7 || len(Figure8Systems()) != 4 {
		t.Fatal("figure system counts wrong")
	}
	// Figure 7 labels in paper order.
	var codes []string
	for _, c := range Figure7Systems() {
		codes = append(codes, c.Col.Code())
	}
	if strings.Join(codes, " ") != "tICL TICL tiCL TiCL ticL TicL Ticl" {
		t.Fatalf("figure 7 order: %v", codes)
	}
}

func TestLazyBuildsShareData(t *testing.T) {
	if testDB.ColumnDB(true) != testDB.ColumnDB(true) {
		t.Fatal("column DB rebuilt")
	}
	if testDB.RowDB() != testDB.RowDB() {
		t.Fatal("row DB rebuilt")
	}
	if testDB.DenormDB(exec.DenormIntC) != testDB.DenormDB(exec.DenormIntC) {
		t.Fatal("denorm rebuilt")
	}
}

func TestExplainAllSystems(t *testing.T) {
	var systems []Config
	systems = append(systems, Figure5Systems()...)
	systems = append(systems, Figure6Systems()...)
	systems = append(systems, Figure8Systems()...)
	for _, cfg := range systems {
		out, err := testDB.Explain("2.1", cfg)
		if err != nil {
			t.Errorf("%s: %v", cfg.Label(), err)
			continue
		}
		if len(out) == 0 {
			t.Errorf("%s: empty explain", cfg.Label())
		}
	}
	if _, err := testDB.Explain("9.9", ColumnStore(exec.FullOpt)); err == nil {
		t.Error("unknown query should error")
	}
}

func TestValidationErrors(t *testing.T) {
	// A flightless ad-hoc plan cannot run on per-flight MV designs.
	adhoc := &ssb.Query{ID: "adhoc", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}}
	if _, _, err := testDB.RunPlan(adhoc, RowMV()); err == nil {
		t.Error("RowMV should reject flightless plans")
	}
	if _, _, err := testDB.RunPlan(adhoc, RowStore(rowexec.MaterializedViews)); err == nil {
		t.Error("RS MV should reject flightless plans")
	}
	// A plan referencing attributes outside the denormalized schema.
	odd := &ssb.Query{
		ID: "odd", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}},
		DimFilters: []ssb.DimFilter{{Dim: ssb.DimCustomer, Col: "mktsegment", Op: compress.OpEq, StrA: "BUILDING"}},
	}
	if _, _, err := testDB.RunPlan(odd, Denormalized(exec.DenormIntC)); err == nil {
		t.Error("denorm should reject uncovered attributes")
	}
	// The same plan runs fine on the column store.
	if _, _, err := testDB.RunPlan(odd, ColumnStore(exec.FullOpt)); err != nil {
		t.Errorf("column store rejected a valid plan: %v", err)
	}
}

// TestGroupSpaceOverflow: a GROUP BY whose composite group space does not
// fit in int64 fails its query with an error on every engine that keys
// groups by that index (the column engines, CS (Row-MV) included), and the
// engines that key groups by rendered values (the row store, the pre-joined
// table) still answer it.
func TestGroupSpaceOverflow(t *testing.T) {
	const joins = "from lineorder, customer, supplier, dwdate where lo_custkey = c_custkey " +
		"and lo_suppkey = s_suppkey and lo_orderdate = d_datekey "
	const custSupp = "c_name, c_address, c_phone, s_name, s_address, s_phone"
	fused, ticl := ColumnStore(exec.FusedOpt), ColumnStore(exec.Figure7Configs()[6])
	pj := []Config{Denormalized(exec.DenormNoC), Denormalized(exec.DenormIntC), Denormalized(exec.DenormMaxC)}
	for _, tc := range []struct {
		sql            string
		refuse, answer []Config
	}{
		// About 1.2e20 catalog cells at this scale factor.
		{"select count(*) " + joins + "and lo_quantity < 3 group by d_date, d_yearmonthnum, d_daynuminyear, " + custSupp,
			[]Config{fused, ColumnStore(exec.FullOpt), ticl}, []Config{RowStore(rowexec.Traditional)}},
		// Its aggregate is covered by the flight-3 MV, so it reaches CS (Row-MV).
		{"select sum(lo_revenue) " + joins + "group by d_date, d_yearmonthnum, d_daynuminyear, " + custSupp,
			[]Config{RowMV()}, nil},
		// Without d_daynuminyear, about 3.4e17 cells: the plan fits.
		{"select count(*) " + joins + "and lo_quantity < 3 group by d_date, d_yearmonthnum, " + custSupp,
			nil, []Config{fused}},
		// Every attribute the pre-joined table inlines.
		{"select count(*) from lineorder, customer, supplier, part, dwdate where lo_custkey = c_custkey " +
			"and lo_suppkey = s_suppkey and lo_partkey = p_partkey and lo_orderdate = d_datekey " +
			"group by c_region, c_nation, c_city, s_region, s_nation, s_city, p_mfgr, p_category, p_brand1, " +
			"d_yearmonth, d_year, d_yearmonthnum, d_weeknuminyear",
			[]Config{fused}, pj},
	} {
		q, err := sql.Parse("wide", tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range tc.refuse {
			if res, _, err := testDB.RunPlanCtx(t.Context(), q, cfg); err == nil || !strings.Contains(err.Error(), "GROUP BY") {
				t.Errorf("%s on %s: got %v, %v; want the group-space error\nSQL: %s", q.ID, cfg.Label(), res, err, tc.sql)
			}
		}
		want := ssb.Reference(testDB.Data, q)
		for _, cfg := range tc.answer {
			res, _, err := testDB.RunPlanCtx(t.Context(), q, cfg)
			if err != nil {
				t.Errorf("%s on %s: %v\nSQL: %s", q.ID, cfg.Label(), err, tc.sql)
			} else if !res.Equal(want) {
				t.Errorf("%s on %s diverges from reference\nSQL: %s\n%s", q.ID, cfg.Label(), tc.sql, want.Diff(res))
			}
		}
	}
}

func TestSuperTupleVPMatchesReference(t *testing.T) {
	for _, id := range []string{"1.1", "2.2", "3.3", "4.1"} {
		if err := testDB.Verify(id, SuperTupleVP()); err != nil {
			t.Error(err)
		}
	}
	if SuperTupleVP().Label() != "RS:VP(super)" {
		t.Error("super-tuple label wrong")
	}
}

// TestOpenSegmentStoreRejectsNonStores is the -data boundary of ssb-serve,
// ssb-query and ssb-gen -append: whatever a path holds that is not a segment
// store — a raw dump from before the segment store was the only format, an
// empty file, a directory, nothing — or a segment store this build can no
// longer read (a segment tagged with a retired encoding), the caller gets
// one error naming the path and no DB.
func TestOpenSegmentStoreRejectsNonStores(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, content []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A valid one-table, one-column store with its only segment's encoding
	// tag rewritten to 3 (delta, retired) and the footer CRC recomputed.
	// The footer is: ntables u32, "t" u16+1, ncols u32, "c" u16+1, sort u8,
	// dict flag u8, nsegs u32, then off, plen, cbytes u64 and the tag byte.
	tab := colstore.NewTable("t")
	tab.AddColumn(colstore.NewColumn("c", []int32{1, 2, 3, 4, 5, 5, 5, 9}, nil, colstore.Unsorted, true))
	retired := filepath.Join(dir, "retired.seg")
	if err := segstore.Save(retired, 0.01, []*colstore.Table{tab}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(retired)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint64(raw[len(raw)-16 : len(raw)-8]))
	footer := raw[len(raw)-20-footerLen : len(raw)-20]
	footer[4+3+4+3+1+1+4+24] = 3
	binary.LittleEndian.PutUint32(raw[len(raw)-20:], crc32.ChecksumIEEE(footer))
	write("retired.seg", raw)

	const notAStore = "segment store"
	for _, tc := range []struct {
		name, path string
		want       string // besides the path
	}{
		{"v1 raw dump", write("old.dat", append([]byte("SSBREPR1"), make([]byte, 64)...)), notAStore},
		{"empty file", write("empty.seg", nil), notAStore},
		{"directory", dir, notAStore},
		{"missing path", filepath.Join(dir, "missing.seg"), ""},
		{"retired encoding tag", retired, `table "t" column "c" segment 0: compress: encoding tag 3: written with a retired encoding (delta/bitvec) — regenerate the store with ssb-gen -out`},
	} {
		db, err := OpenSegmentStore(tc.path, 0)
		if err == nil || db != nil {
			t.Errorf("%s: OpenSegmentStore = %v, %v; want no DB and an error", tc.name, db, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.path) {
			t.Errorf("%s: error does not name the path %s: %v", tc.name, tc.path, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error does not say %q: %v", tc.name, tc.want, err)
		}
	}
}
