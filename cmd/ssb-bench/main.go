// Command ssb-bench regenerates the paper's evaluation tables. Each figure
// prints one row per system and one column per SSBM query plus the average,
// in the same layout as the paper:
//
//	-figure 5          baseline RS, RS(MV), CS, CS(Row-MV)       (Figure 5)
//	-figure 6          row-store designs T, T(B), MV, VP, AI     (Figure 6)
//	-figure 7          C-Store ablation tICL .. Ticl             (Figure 7)
//	-figure 8          denormalization Base, PJ variants         (Figure 8)
//	-figure sizes      storage footprint comparison              (Section 6.2)
//	-figure conclusion   super-tuple row-store simulation        (Section 7)
//	-figure partition  partitioning on/off ablation              (Section 6.1)
//	-figure all        everything
//
// These are the paper's experiments and nothing else. What the serving
// engine costs — the fused scan per flight and its parallel speedup, the
// compressed-block kernels, the segment store cold, warm and under a memory
// budget, throughput and latency under ingest — is measured out of process,
// over real HTTP on SF=1 data, by the repository benchmark (BENCHMARK.json,
// benchmark/).
//
// Reported numbers are total simulated seconds: measured CPU time plus the
// I/O the run performed priced at the paper's 180 MB/s striped-disk model.
// Use -cpu or -io to print those components separately.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

var (
	sfFlag   = flag.Float64("sf", 0.1, "SSBM scale factor (paper uses 10)")
	reps     = flag.Int("reps", 1, "repetitions per cell (best time wins)")
	showCPU  = flag.Bool("cpu", false, "also print measured CPU seconds")
	showIO   = flag.Bool("io", false, "also print simulated I/O seconds")
	verify   = flag.Bool("verify", false, "verify every cell against the reference (slow)")
	csvOut   = flag.Bool("csv", false, "emit figures as CSV instead of aligned tables")
	figureID = flag.String("figure", "all", "which experiment to run: 5, 6, 7, 8, sizes, conclusion, partition, all")
	jsonPath = flag.String("json", "", "write every figure's measurements to this file as a normalized ssb-bench/v2 JSON artifact")
)

func main() {
	flag.Parse()
	db := core.Open(*sfFlag)
	fmt.Printf("# SSBM at SF=%g (%d lineorder rows); disk model %.0f MB/s\n",
		db.SF, db.Data.NumLineorders(), db.Disk.SeqMBPerSec)

	for _, f := range strings.Split(*figureID, ",") {
		switch f {
		case "5":
			runFigure(db, "5", "Figure 5: baseline comparison", figure5Rows(db))
		case "6":
			runFigure(db, "6", "Figure 6: row-store physical designs", figure6Rows(db))
		case "7":
			runFigure(db, "7", "Figure 7: C-Store optimization ablation", figure7Rows(db))
		case "8":
			runFigure(db, "8", "Figure 8: denormalization", figure8Rows(db))
		case "sizes":
			runSizes(db)
		case "conclusion":
			runFigure(db, "conclusion", "Extension: super-tuple row-store simulation (paper Section 7)", conclusionRows(db))
		case "partition":
			runPartition(db)
		case "all":
			runFigure(db, "5", "Figure 5: baseline comparison", figure5Rows(db))
			runFigure(db, "6", "Figure 6: row-store physical designs", figure6Rows(db))
			runFigure(db, "7", "Figure 7: C-Store optimization ablation", figure7Rows(db))
			runFigure(db, "8", "Figure 8: denormalization", figure8Rows(db))
			runFigure(db, "conclusion", "Extension: super-tuple row-store simulation (paper Section 7)", conclusionRows(db))
			runSizes(db)
			runPartition(db)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
	}
	if *jsonPath != "" {
		if err := writeArtifact(*jsonPath, db.SF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\n(wrote %s: %d measurements across %v)\n", *jsonPath, len(collector.Measurements), collector.Figures)
	}
}

// row is one system under test in a figure.
type row struct {
	label string
	cfg   core.Config
}

func figure5Rows(db *core.DB) []row {
	sys := core.Figure5Systems()
	return []row{
		{"RS", sys[0]}, {"RS (MV)", sys[1]}, {"CS", sys[2]}, {"CS (Row-MV)", sys[3]},
	}
}

func figure6Rows(db *core.DB) []row {
	var out []row
	for _, cfg := range core.Figure6Systems() {
		out = append(out, row{cfg.Design.String(), cfg})
	}
	return out
}

func figure7Rows(db *core.DB) []row {
	var out []row
	for _, cfg := range core.Figure7Systems() {
		out = append(out, row{cfg.Col.Code(), cfg})
	}
	return out
}

func figure8Rows(db *core.DB) []row {
	sys := core.Figure8Systems()
	return []row{
		{"Base", sys[0]},
		{"PJ, No C", sys[1]},
		{"PJ, Int C", sys[2]},
		{"PJ, Max C", sys[3]},
	}
}

func conclusionRows(db *core.DB) []row {
	return []row{
		{"VP (naive)", core.RowStore(rowexec.VerticalPartitioning)},
		{"VP (super)", core.SuperTupleVP()},
		{"CS (no compress)", core.ColumnStore(exec.Config{BlockIter: true, InvisibleJoin: true, LateMat: true})},
		{"CS (full)", core.ColumnStore(exec.FullOpt)},
	}
}

func runFigure(db *core.DB, figKey, title string, rows []row) {
	queries := ssb.Queries()
	fmt.Printf("\n## %s\n", title)
	if *csvOut {
		header := "system"
		for _, q := range queries {
			header += ",Q" + q.ID
		}
		fmt.Println(header + ",AVG")
	} else {
		header := fmt.Sprintf("%-12s", "")
		for _, q := range queries {
			header += fmt.Sprintf("%8s", q.ID)
		}
		header += fmt.Sprintf("%8s", "AVG")
		fmt.Println(header)
	}

	print := func(kind string, cells map[string][]float64) {
		for _, r := range rows {
			sum := 0.0
			if *csvOut {
				line := r.label + kind
				for _, v := range cells[r.label] {
					line += fmt.Sprintf(",%.6f", v)
					sum += v
				}
				fmt.Printf("%s,%.6f\n", line, sum/float64(len(queries)))
				continue
			}
			line := fmt.Sprintf("%-12s", r.label+kind)
			for _, v := range cells[r.label] {
				line += fmt.Sprintf("%8.3f", v)
				sum += v
			}
			line += fmt.Sprintf("%8.3f", sum/float64(len(queries)))
			fmt.Println(line)
		}
	}

	recordFigure(figKey)
	total := map[string][]float64{}
	cpu := map[string][]float64{}
	ioSec := map[string][]float64{}
	for _, r := range rows {
		for _, q := range queries {
			best := core.RunStats{}
			for rep := 0; rep < *reps; rep++ {
				_, stats, err := db.Run(q.ID, r.cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if rep == 0 || stats.Total < best.Total {
					best = stats
				}
			}
			if *verify {
				if err := db.Verify(q.ID, r.cfg); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			total[r.label] = append(total[r.label], best.Total.Seconds())
			cpu[r.label] = append(cpu[r.label], best.Wall.Seconds())
			ioSec[r.label] = append(ioSec[r.label], best.IOTime.Seconds())
			record(figKey, r.label, q.ID, "total_s", best.Total.Seconds(), "lower")
			record(figKey, r.label, q.ID, "cpu_s", best.Wall.Seconds(), "lower")
		}
	}
	print("", total)
	if *showCPU {
		fmt.Println("-- measured CPU seconds --")
		print("(cpu)", cpu)
	}
	if *showIO {
		fmt.Println("-- simulated I/O seconds --")
		print("(io)", ioSec)
	}
}

// runSizes reproduces the Section 6.2 storage comparison: vertical
// partitioning's per-value overhead vs the traditional heap vs the column
// store.
func runSizes(db *core.DB) {
	fmt.Println("\n## Storage sizes (paper Section 6.2 'Tuple overheads')")
	col := db.ColumnDB(true)
	colPlain := db.ColumnDB(false)
	sx := db.RowDB()
	n := float64(db.Data.NumLineorders())

	fmt.Printf("%-42s %10s %14s\n", "layout", "MB", "bytes/value")
	p := func(name string, bytes int64, values float64) {
		fmt.Printf("%-42s %10.1f %14.2f\n", name, float64(bytes)/1e6, float64(bytes)/values)
	}
	p("row store: full 17-column fact heap", sx.Fact.HeapBytes(), n*17)
	var vpBytes int64
	for _, vt := range sx.VP {
		vpBytes += vt.HeapBytes()
	}
	p(fmt.Sprintf("row store: %d vertical partitions", len(sx.VP)), vpBytes, n*float64(len(sx.VP)))
	p("column store: fact, uncompressed", colPlain.Fact.CompressedBytes(), n*17)
	p("column store: fact, compressed", col.Fact.CompressedBytes(), n*17)
	fmt.Printf("\nPaper: VP needs ~16 bytes/value (8B header + 4B rid + 4B value)\n")
	fmt.Printf("vs 4 bytes/value uncompressed in C-Store; whole compressed fact ~2.3GB at SF=10.\n")
}

// runPartition reproduces the Section 6.1 partitioning ablation: the
// traditional design with and without orderdate-year pruning.
func runPartition(db *core.DB) {
	fmt.Println("\n## Partitioning ablation (paper Section 6.1: ~2x on average)")
	recordFigure("partition")
	queries := ssb.Queries()
	fmt.Printf("%-10s %12s %12s %8s\n", "query", "part (s)", "nopart (s)", "ratio")
	sumP, sumN := 0.0, 0.0
	for _, q := range queries {
		_, withP, err := db.Run(q.ID, core.RowStore(rowexec.Traditional))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		_, noP, err := db.Run(q.ID, core.Config{Kind: core.KindRow, Design: rowexec.Traditional})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p, np := withP.Total.Seconds(), noP.Total.Seconds()
		record("partition", "partitioned", q.ID, "total_s", p, "lower")
		record("partition", "unpartitioned", q.ID, "total_s", np, "lower")
		sumP += p
		sumN += np
		fmt.Printf("%-10s %12.3f %12.3f %8.2f\n", q.ID, p, np, np/p)
	}
	fmt.Printf("%-10s %12.3f %12.3f %8.2f\n", "AVG", sumP/13, sumN/13, sumN/sumP)
}
