package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_sf001.json golden files: results from the reference engine, I/O counters from the engines as they are")

const goldenPath = "testdata/golden_sf001.json"

// goldenRow is one pinned result row.
type goldenRow struct {
	Keys []string `json:"keys,omitempty"`
	Aggs []int64  `json:"aggs"`
}

// goldenFile pins query id -> canonical rows at SF=0.01.
type goldenFile map[string][]goldenRow

func toGoldenRows(res *ssb.Result) []goldenRow {
	rows := make([]goldenRow, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = goldenRow{Keys: r.Keys, Aggs: r.AggValues()}
	}
	return rows
}

func diffGolden(want []goldenRow, got *ssb.Result) string {
	gotRows := toGoldenRows(got)
	if len(want) != len(gotRows) {
		return fmt.Sprintf("row counts differ: golden %d vs got %d", len(want), len(gotRows))
	}
	for i := range want {
		w, g := want[i], gotRows[i]
		if fmt.Sprint(w.Keys) != fmt.Sprint(g.Keys) || fmt.Sprint(w.Aggs) != fmt.Sprint(g.Aggs) {
			return fmt.Sprintf("row %d: golden %v=%v vs got %v=%v", i, w.Keys, w.Aggs, g.Keys, g.Aggs)
		}
	}
	return ""
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with `go test ./internal/core -run TestGolden -update`): %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	return g
}

// TestGoldenReference pins the reference engine's results for all thirteen
// SSBM queries at SF=0.01 against a committed golden file, so neither the
// data generator nor the oracle can silently drift.
func TestGoldenReference(t *testing.T) {
	if *updateGolden {
		g := goldenFile{}
		for _, q := range ssb.Queries() {
			g[q.ID] = toGoldenRows(ssb.Reference(testDB.Data, q))
		}
		raw, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	g := loadGolden(t)
	if len(g) != 13 {
		t.Fatalf("golden file has %d queries, want 13", len(g))
	}
	for _, q := range ssb.Queries() {
		if d := diffGolden(g[q.ID], ssb.Reference(testDB.Data, q)); d != "" {
			t.Errorf("Q%s: reference drifted from golden: %s", q.ID, d)
		}
	}
}

// goldenMatrix is every engine/Config combination the golden sweep pins:
// the fused column store at 1/4/8 workers, the seven Figure 7 ablation
// configurations (per-probe and early-materialized, single-threaded as in
// the paper), all five row-store designs (plus the no-partitioning and
// super-tuple variants), the row-oriented MV, and the three denormalized
// modes.
func goldenMatrix() []Config {
	var out []Config
	for _, w := range []int{1, 4, 8} {
		c := exec.FusedOpt
		c.Workers = w
		out = append(out, ColumnStore(c))
	}
	out = append(out, Figure7Systems()...)
	for _, d := range rowexec.Designs() {
		out = append(out, RowStore(d))
		out = append(out, Config{Kind: KindRow, Design: d})
	}
	out = append(out, SuperTupleVP(), RowMV())
	out = append(out,
		Denormalized(exec.DenormNoC),
		Denormalized(exec.DenormIntC),
		Denormalized(exec.DenormMaxC),
	)
	return out
}

// TestGoldenSegmentStore round-trips the SF=0.01 dataset through a segment
// file and demands that the pool-backed column engines still reproduce the
// golden results exactly — under a buffer-pool budget small enough to force
// evictions — and that engines needing the raw dataset are rejected with a
// useful error rather than run against nothing.
func TestGoldenSegmentStore(t *testing.T) {
	if *updateGolden {
		t.Skip("golden update run")
	}
	g := loadGolden(t)
	path := filepath.Join(t.TempDir(), "golden.seg")
	if err := exec.SaveSegments(path, testDB.SF, testDB.ColumnDB(true)); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}
	segDB, err := OpenSegmentStore(path, 192<<10)
	if err != nil {
		t.Fatalf("OpenSegmentStore: %v", err)
	}
	defer segDB.SegmentStore().Close()
	if segDB.SF != testDB.SF {
		t.Errorf("segment store SF = %v want %v", segDB.SF, testDB.SF)
	}

	w8 := exec.FusedOpt
	w8.Workers = 8
	for _, cfg := range []Config{ColumnStore(exec.FullOpt), ColumnStore(exec.FusedOpt), ColumnStore(w8)} {
		for _, q := range ssb.Queries() {
			res, _, err := segDB.Run(q.ID, cfg)
			if err != nil {
				t.Errorf("Q%s on %s (segment store): %v", q.ID, cfg.Label(), err)
				continue
			}
			if d := diffGolden(g[q.ID], res); d != "" {
				t.Errorf("Q%s on %s from segment store drifted from golden: %s", q.ID, cfg.Label(), d)
			}
		}
	}
	ps := segDB.SegmentStore().Pool().Stats()
	if ps.Evictions == 0 {
		t.Error("192KB budget over the full golden sweep produced no evictions")
	}

	// Raw-dataset engines must be rejected, not crash.
	for _, cfg := range []Config{
		RowStore(rowexec.Traditional),
		RowMV(),
		Denormalized(exec.DenormNoC),
		ColumnStore(exec.Config{BlockIter: true, LateMat: true}), // plain storage
	} {
		if _, _, err := segDB.Run("1.1", cfg); err == nil || !strings.Contains(err.Error(), "segment store") {
			t.Errorf("%s over a segment store: err = %v, want a segment-store rejection", cfg.Label(), err)
		}
	}
	if err := segDB.Verify("1.1", ColumnStore(exec.FullOpt)); err == nil {
		t.Error("Verify over a segment store should explain it needs the raw dataset")
	}
}

// TestGoldenEngineMatrix runs all thirteen queries through every pinned
// engine/Config combination and demands exact agreement with the golden
// file — future optimizations cannot silently change any answer.
func TestGoldenEngineMatrix(t *testing.T) {
	if *updateGolden {
		t.Skip("golden update run")
	}
	g := loadGolden(t)
	for _, cfg := range goldenMatrix() {
		for _, q := range ssb.Queries() {
			res, _, err := testDB.Run(q.ID, cfg)
			if err != nil {
				t.Errorf("Q%s on %s: %v", q.ID, cfg.Label(), err)
				continue
			}
			if d := diffGolden(g[q.ID], res); d != "" {
				t.Errorf("Q%s on %s drifted from golden: %s", q.ID, cfg.Label(), d)
			}
		}
	}
}

// ioStatsFile pins cell -> plan id -> the whole iosim.Stats of one
// execution at SF=0.01: the logical I/O model is deterministic, so a
// refactor that claims to move code, not cost, shows an empty diff here.
type ioStatsFile map[string]map[string]iosim.Stats

// ioStatsKey names a cell: the config's label plus the worker count, which
// Label leaves out.
func ioStatsKey(cfg Config) string {
	if cfg.Col.Workers > 0 {
		return fmt.Sprintf("%s/w%d", cfg.Label(), cfg.Col.Workers)
	}
	return cfg.Label()
}

// marshal renders the file with sorted keys and one line per cell, so a
// changed counter is a one-line diff.
func (f ioStatsFile) marshal(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("{\n")
	cells := slices.Sorted(maps.Keys(f))
	for i, cell := range cells {
		fmt.Fprintf(&b, " %q: {\n", cell)
		ids := slices.Sorted(maps.Keys(f[cell]))
		for j, id := range ids {
			st, err := json.Marshal(f[cell][id])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "  %q: %s", id, st)
			if j < len(ids)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString(" }")
		if i < len(cells)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// wideGroupPlans are two ungoverned three-way groupings whose composite
// group space outgrows what the thirteen queries ever reach: the first
// (7.7e7 at this scale factor) is past the dense-array limit and aggregates
// by hash; the second (3.5e6) sits between the per-worker and the dense
// limits here and is past both from SF=0.02.
func wideGroupPlans() []*ssb.Query {
	return []*ssb.Query{
		{ID: "wide-names", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "name"}, {Dim: ssb.DimPart, Col: "name"}, {Dim: ssb.DimDate, Col: "date"}}},
		{ID: "wide-cities", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "city"}, {Dim: ssb.DimSupplier, Col: "city"}, {Dim: ssb.DimPart, Col: "brand1"}}},
	}
}

// checkIOStats runs every plan under every config, demands the reference
// result, and compares each run's whole iosim.Stats with the golden file at
// path (or rewrites the file under -update). An ad-hoc plan a design does
// not cover — no flight MV, attributes outside the denormalized schema — is
// left out of that design's cell.
func checkIOStats(t *testing.T, path string, cfgs []Config, plans func(Config) []*ssb.Query) {
	got := ioStatsFile{}
	refs := map[string]*ssb.Result{}
	for _, cfg := range cfgs {
		cell := map[string]iosim.Stats{}
		for _, q := range plans(cfg) {
			res, stats, err := testDB.RunPlan(q, cfg)
			if err != nil {
				if q.Flight == 0 {
					continue
				}
				t.Fatalf("%s on %s: %v", q.ID, ioStatsKey(cfg), err)
			}
			if refs[q.ID] == nil {
				refs[q.ID] = ssb.Reference(testDB.Data, q)
			}
			if !res.Equal(refs[q.ID]) {
				t.Errorf("%s on %s diverges from reference:\n%s", q.ID, ioStatsKey(cfg), refs[q.ID].Diff(res))
			}
			cell[q.ID] = stats.IO
		}
		got[ioStatsKey(cfg)] = cell
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.marshal(t), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with `go test ./internal/core -run TestGolden -update`): %v", err)
	}
	var want ioStatsFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s corrupt: %v", path, err)
	}
	for _, cell := range slices.Sorted(maps.Keys(want)) {
		if got[cell] == nil {
			t.Errorf("%s: pinned in %s but no longer run", cell, path)
		}
	}
	for _, cell := range slices.Sorted(maps.Keys(got)) {
		if len(got[cell]) != len(want[cell]) {
			t.Errorf("%s: ran %d plans, golden pins %d", cell, len(got[cell]), len(want[cell]))
		}
		for _, id := range slices.Sorted(maps.Keys(got[cell])) {
			if g, w := got[cell][id], want[cell][id]; g != w {
				t.Errorf("%s %s: logical I/O drifted from golden\n got  %+v\n want %+v", cell, id, g, w)
			}
		}
	}
}

// TestGoldenIOStats pins the logical I/O of the whole engine matrix — every
// counter of iosim.Stats, for the thirteen queries and the two wide-group
// plans — so the cost side of every engine is guarded by exact equality
// rather than by a stopwatch with a tolerance.
func TestGoldenIOStats(t *testing.T) {
	plans := append(ssb.Queries(), wideGroupPlans()...)
	checkIOStats(t, "testdata/iostats_sf001.json", goldenMatrix(),
		func(Config) []*ssb.Query { return plans })
}

// TestGoldenRowPlanDifferential is the row-plan differential: the two row-at-a-time
// ablation engines inside the column store — early materialization with the
// dimension kernels on and off, and the row-oriented MV — evaluate one
// compiled row plan, and must return the reference result at exactly the
// pinned I/O. Random plans carry no flight, so no MV covers them.
func TestGoldenRowPlanDifferential(t *testing.T) {
	earlyMat := exec.Config{}
	earlyMatNoKernels := exec.Config{NoKernels: true}
	adhoc := ssb.Queries()
	for i := int64(0); i < 40; i++ {
		adhoc = append(adhoc, ssb.RandQuery(2026_0728_0000+i))
	}
	checkIOStats(t, "testdata/rowplan_iostats_sf001.json",
		[]Config{ColumnStore(earlyMat), ColumnStore(earlyMatNoKernels), RowMV()},
		func(cfg Config) []*ssb.Query {
			if cfg.Kind == KindColumnRowMV {
				return ssb.Queries()
			}
			return adhoc
		})
}
