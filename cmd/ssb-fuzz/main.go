// Command ssb-fuzz is the standing cross-engine differential fuzzer: it
// generates seeded random ad-hoc queries over the SSBM schema, runs each
// one through every engine that executes ad-hoc plans — the brute-force
// reference, the per-probe column pipeline, the fused morsel-parallel
// pipeline at 1 and 8 workers, the row-store designs, and the pre-joined
// table's three modes on the plans its schema covers — and fails on any
// divergence in results or in the fused pipeline's worker-count-invariant
// I/O accounting.
//
// Usage:
//
//	ssb-fuzz [-sf 0.01] [-n 200] [-seed 1] [-heavy] [-v]
//
// Every failure prints the query's seed and its SQL rendering; reproduce
// with
//
//	ssb-fuzz -seed <seed> -n 1
//	ssb-query -sql '<printed SQL>' -verify
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/rowexec"
	"repro/internal/sql"
	"repro/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.01, "SSBM scale factor")
	n := flag.Int("n", 200, "number of random queries")
	seed := flag.Int64("seed", 1, "base seed (query i uses seed+i)")
	heavy := flag.Bool("heavy", false, "run the bitmap/VP/AI row designs on every query instead of a rotating subset")
	verbose := flag.Bool("v", false, "print every query")
	flag.Parse()

	fmt.Printf("generating SSBM data at SF=%g...\n", *sf)
	data := ssb.Generate(*sf)
	dbc := exec.BuildDB(data, true)
	sx := rowexec.Build(data, rowexec.BuildOptions{VP: true, Indexes: true, Bitmaps: true})
	pjs := []*exec.DenormDB{exec.BuildDenorm(data, exec.DenormNoC), exec.BuildDenorm(data, exec.DenormIntC), exec.BuildDenorm(data, exec.DenormMaxC)}

	failures, nonEmpty, prejoined := 0, 0, 0
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		q := ssb.RandQuery(s)
		text := q.SQL()
		if *verbose {
			fmt.Printf("[%d] seed=%d %s\n", i, s, text)
		}
		want := ssb.Reference(data, q)
		if len(want.Rows) > 0 && (len(q.GroupBy) > 0 || want.Rows[0].AggValues()[0] != 0) {
			nonEmpty++
		}

		fail := func(label, detail string) {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL seed=%d engine=%s\n  SQL: %s\n  %s\n", s, label, text, detail)
		}
		check := func(label string, got *ssb.Result) {
			if !got.Equal(want) {
				fail(label, want.Diff(got))
			}
		}

		// SQL round-trip through the frontend.
		parsed, err := sql.Parse(q.ID, text)
		if err != nil {
			fail("sql-parse", err.Error())
		} else {
			check("sql-roundtrip", ssb.Reference(data, parsed))
		}

		check("column per-probe", dbc.Run(q, exec.FullOpt, nil))

		cfg1, cfg8 := exec.FusedOpt, exec.FusedOpt
		cfg1.Workers, cfg8.Workers = 1, 8
		var st1, st8 iosim.Stats
		check("fused workers=1", dbc.Run(q, cfg1, &st1))
		check("fused workers=8", dbc.Run(q, cfg8, &st8))
		if st1 != st8 {
			fail("fused-io-accounting", fmt.Sprintf("workers=1 %+v vs workers=8 %+v", st1, st8))
		}

		check("rowexec T", sx.Run(q, rowexec.Traditional, nil))
		if *heavy || i%4 == 0 {
			check("rowexec T(B)", sx.Run(q, rowexec.TraditionalBitmap, nil))
		}
		if *heavy || i%4 == 1 {
			check("rowexec VP", sx.Run(q, rowexec.VerticalPartitioning, nil))
		}
		if *heavy || i%4 == 2 {
			check("rowexec AI", sx.Run(q, rowexec.AllIndexes, nil))
		}
		if pjs[0].Supports(q) { // every mode inlines the same attributes
			prejoined++
			for _, pj := range pjs {
				check(pj.Mode.String(), pj.Run(q, nil))
			}
		}
	}

	fmt.Printf("ran %d queries (%d with non-empty results, %d on the pre-joined table) against 7+ engine paths: %d failure(s)\n",
		*n, nonEmpty, prejoined, failures)
	if failures > 0 {
		os.Exit(1)
	}
}
