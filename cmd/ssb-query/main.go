// Command ssb-query runs one SSBM query against a chosen system and prints
// the result rows alongside measured CPU time, simulated I/O and the
// combined paper-comparable time.
//
// Usage:
//
//	ssb-query [-sf 0.1] -q 2.1 -system CS
//	ssb-query -data ssb.seg -mem-budget 16 -q 2.1 -system CS-FUSED
//
// -data opens a segment store (ssb-gen -out), which serves the compressed
// column-store systems through a buffer pool bounded by -mem-budget,
// printing pool hit/miss/eviction statistics after the run; every other
// system needs the raw dataset and runs on a generated one (-sf). -verify
// needs the raw dataset too; segment stores are checked against the pinned
// golden file by `go test ./internal/core -run TestGoldenSegmentStore`.
//
// Systems: CS (full column store), CS-FUSED (fused morsel-parallel
// pipeline, see PERFORMANCE.md), CS:<code> (Figure 7 configuration such
// as Ticl), CS-ROWMV, RS (traditional), RS-TB, RS-MV, RS-VP, RS-AI,
// PJ-NOC, PJ-INTC, PJ-MAXC.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rowexec"
	"repro/internal/sql"
	"repro/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.1, "SSBM scale factor")
	dataPath := flag.String("data", "", "open this segment store (written by ssb-gen -out) instead of generating")
	queryID := flag.String("q", "2.1", "SSBM query id (1.1 .. 4.3)")
	sqlText := flag.String("sql", "", "ad-hoc SQL in the SSBM dialect (overrides -q); supports any dimension/measure predicates, group-by sets and sum/count/min/max aggregate lists")
	system := flag.String("system", "CS", "system under test (see doc comment)")
	workers := flag.Int("workers", 0, "morsel worker count of the fused scan; applies to -system CS-FUSED only (0 = single-threaded)")
	memBudget := flag.Float64("mem-budget", 0, "buffer-pool budget in MB for the -data segment store (0 = unbounded)")
	verify := flag.Bool("verify", false, "also check against the brute-force reference")
	explain := flag.Bool("explain", false, "print the physical plan; column-store systems then execute once and print a per-stage trace (EXPLAIN ANALYZE)")
	fuzzSeed := flag.Int64("fuzz-seed", 0, "run the seeded random query with this seed (overrides -q and -sql; see ssb-fuzz)")
	flag.Parse()

	cfg, err := parseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.Kind == core.KindColumn && *workers > 0 {
		cfg.Col.Workers = *workers
	}

	db, err := openDB(*dataPath, *sf, int64(*memBudget*1e6))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *verify && db.Data == nil {
		fmt.Fprintln(os.Stderr, "-verify needs the raw dataset (-sf, not -data); segment stores are checked by go test ./internal/core -run TestGoldenSegmentStore")
		os.Exit(2)
	}
	var res *ssb.Result
	var stats core.RunStats
	var plan *ssb.Query
	if *fuzzSeed != 0 {
		plan = ssb.RandQuery(*fuzzSeed)
		fmt.Printf("sql=%s\n", plan.SQL())
	} else if *sqlText != "" {
		plan, err = sql.Parse("adhoc", *sqlText)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		plan = ssb.QueryByID(*queryID)
		if plan == nil {
			fmt.Fprintf(os.Stderr, "unknown SSBM query %q\n", *queryID)
			os.Exit(2)
		}
	}
	if *explain {
		text, err := db.ExplainPlan(plan, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(text)
		if cfg.Kind == core.KindColumn {
			if err := explainAnalyze(db, plan, cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	res, stats, err = db.RunPlan(plan, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("system=%s sf=%g\n", cfg.Label(), db.SF)
	fmt.Printf("engine=%s\n", cfg.Engine())
	fmt.Print(res.String())
	fmt.Printf("cpu=%v  io=%.1fMB (%d seeks)  io-time=%v  total=%v\n",
		stats.Wall, float64(stats.IO.BytesRead)/1e6, stats.IO.Seeks, stats.IOTime, stats.Total)
	printPoolStats(db)

	if *verify {
		want := ssb.Reference(db.Data, plan)
		if !res.Equal(want) {
			fmt.Fprintf(os.Stderr, "result diverges from reference:\n%s\n", want.Diff(res))
			os.Exit(1)
		}
		fmt.Println("verified against reference")
	}
}

// explainAnalyze executes the plan once with a trace attached and prints
// the per-stage table — the dynamic half of -explain for the column
// engines. On segment-backed stores it also cross-checks the trace against
// the buffer pool: the trace's block-fetch total must equal the pool's
// acquire delta (hits+misses) for the run, evidence that the stage counters
// describe the I/O that actually happened rather than a parallel estimate.
func explainAnalyze(db *core.DB, plan *ssb.Query, cfg core.Config) error {
	var h0, m0 int64
	seg := db.SegmentStore()
	if seg != nil {
		ps := seg.Pool().Stats()
		h0, m0 = ps.Hits, ps.Misses
	}
	tr := &obs.Trace{}
	res, stats, err := db.RunPlanCtx(obs.WithTrace(context.Background(), tr), plan, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nEXPLAIN ANALYZE  engine=%s workers=%d rows=%d\n", tr.Engine, tr.Workers, len(res.Rows))
	tr.Render(os.Stdout)
	fmt.Printf("cpu=%v  io=%.1fMB (%d seeks)  total=%v\n",
		stats.Wall, float64(stats.IO.BytesRead)/1e6, stats.IO.Seeks, stats.Total)
	if seg != nil {
		ps := seg.Pool().Stats()
		acquires := (ps.Hits - h0) + (ps.Misses - m0)
		tot := tr.Totals()
		status := "exact"
		if tot.BlocksFetched != acquires {
			status = "MISMATCH"
		}
		fmt.Printf("reconcile: trace blocks fetched=%d, pool acquires (hit+miss delta)=%d [%s]\n",
			tot.BlocksFetched, acquires, status)
	}
	return nil
}

// openDB opens a saved segment store or generates a dataset.
func openDB(path string, sf float64, memBudget int64) (*core.DB, error) {
	if path == "" {
		return core.Open(sf), nil
	}
	return core.OpenSegmentStore(path, memBudget)
}

// printPoolStats reports buffer-pool activity for segment-backed DBs.
func printPoolStats(db *core.DB) {
	st := db.SegmentStore()
	if st == nil {
		return
	}
	ps := st.Pool().Stats()
	budget := "unbounded"
	if st.Pool().Budget() > 0 {
		budget = fmt.Sprintf("%.1fMB", float64(st.Pool().Budget())/1e6)
	}
	fmt.Printf("pool: budget=%s hits=%d misses=%d evictions=%d disk-read=%.1fMB resident=%.1fMB peak=%.1fMB (%d segment fetches, file has %d segments)\n",
		budget, ps.Hits, ps.Misses, ps.Evictions, float64(ps.BytesRead)/1e6,
		float64(ps.Resident)/1e6, float64(ps.Peak)/1e6, ps.Misses, st.NumSegments())
}

// parseSystem maps a CLI name to a core.Config.
func parseSystem(s string) (core.Config, error) {
	u := strings.ToUpper(s)
	switch u {
	case "CS":
		return core.ColumnStore(exec.FullOpt), nil
	case "CS-FUSED":
		return core.ColumnStore(exec.FusedOpt), nil
	case "CS-ROWMV":
		return core.RowMV(), nil
	case "RS":
		return core.RowStore(rowexec.Traditional), nil
	case "RS-TB":
		return core.RowStore(rowexec.TraditionalBitmap), nil
	case "RS-MV":
		return core.RowStore(rowexec.MaterializedViews), nil
	case "RS-VP":
		return core.RowStore(rowexec.VerticalPartitioning), nil
	case "RS-AI":
		return core.RowStore(rowexec.AllIndexes), nil
	case "RS-NOPART":
		return core.Config{Kind: core.KindRow, Design: rowexec.Traditional}, nil
	case "PJ-NOC":
		return core.Denormalized(exec.DenormNoC), nil
	case "PJ-INTC":
		return core.Denormalized(exec.DenormIntC), nil
	case "PJ-MAXC":
		return core.Denormalized(exec.DenormMaxC), nil
	}
	if strings.HasPrefix(u, "CS:") {
		code := s[len("CS:"):]
		if len(code) != 4 {
			return core.Config{}, fmt.Errorf("bad CS code %q (want e.g. tICL)", code)
		}
		cfg := exec.Config{
			BlockIter:     code[0] == 't',
			InvisibleJoin: code[1] == 'I',
			Compression:   code[2] == 'C',
			LateMat:       code[3] == 'L',
		}
		return core.ColumnStore(cfg), nil
	}
	return core.Config{}, fmt.Errorf("unknown system %q", s)
}
