package repro

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

// benchSF is the scale factor for the figure benchmarks. The paper uses
// SF=10 (60M rows); the default here keeps `go test -bench .` minutes-scale.
// Override with REPRO_BENCH_SF.
func benchSF() float64 {
	if s := os.Getenv("REPRO_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.02
}

var benchDB = sync.OnceValue(func() *core.DB {
	db := core.Open(benchSF())
	// Force all lazy builds outside the timed regions.
	db.ColumnDB(true)
	db.ColumnDB(false)
	db.RowDB()
	db.DenormDB(exec.DenormNoC)
	db.DenormDB(exec.DenormIntC)
	db.DenormDB(exec.DenormMaxC)
	return db
})

// benchSystem runs all thirteen SSBM queries once per iteration under cfg,
// reporting the simulated I/O time per iteration as an extra metric so the
// paper-comparable total (CPU + simulated I/O) can be reconstructed from
// the benchmark output.
func benchSystem(b *testing.B, db *core.DB, cfg core.Config) {
	queries := ssb.Queries()
	// One warm-up pass also validates the configuration end to end.
	for _, q := range queries {
		if _, _, err := db.Run(q.ID, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var ioSecs float64
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			_, stats, err := db.Run(q.ID, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ioSecs += stats.IOTime.Seconds()
		}
	}
	b.ReportMetric(ioSecs/float64(b.N), "sim-io-s/op")
}

// BenchmarkFigure5 reproduces the paper's Figure 5: baseline RS, RS(MV),
// CS and CS(Row-MV). Each iteration runs all 13 SSBM queries.
func BenchmarkFigure5(b *testing.B) {
	db := benchDB()
	labels := []string{"RS", "RS-MV", "CS", "CS-RowMV"}
	for i, cfg := range core.Figure5Systems() {
		cfg := cfg
		b.Run(labels[i], func(b *testing.B) { benchSystem(b, db, cfg) })
	}
}

// BenchmarkFigure6 reproduces Figure 6: the five row-store physical
// designs T, T(B), MV, VP, AI.
func BenchmarkFigure6(b *testing.B) {
	db := benchDB()
	labels := []string{"T", "TB", "MV", "VP", "AI"}
	for i, cfg := range core.Figure6Systems() {
		cfg := cfg
		b.Run(labels[i], func(b *testing.B) { benchSystem(b, db, cfg) })
	}
}

// BenchmarkFigure7 reproduces Figure 7: the C-Store optimization ablation
// tICL .. Ticl.
func BenchmarkFigure7(b *testing.B) {
	db := benchDB()
	for _, cfg := range core.Figure7Systems() {
		cfg := cfg
		b.Run(cfg.Col.Code(), func(b *testing.B) { benchSystem(b, db, cfg) })
	}
}

// BenchmarkFigure8 reproduces Figure 8: baseline C-Store vs the
// denormalized (pre-joined) table in three compression modes.
func BenchmarkFigure8(b *testing.B) {
	db := benchDB()
	labels := []string{"Base", "PJ-NoC", "PJ-IntC", "PJ-MaxC"}
	for i, cfg := range core.Figure8Systems() {
		cfg := cfg
		b.Run(labels[i], func(b *testing.B) { benchSystem(b, db, cfg) })
	}
}

// BenchmarkStorageSizes reports the Section 6.2 storage comparison as
// benchmark metrics (bytes per value for each layout).
func BenchmarkStorageSizes(b *testing.B) {
	db := benchDB()
	n := float64(db.Data.NumLineorders())
	col := db.ColumnDB(true)
	colPlain := db.ColumnDB(false)
	sx := db.RowDB()
	var vpBytes int64
	for _, vt := range sx.VP {
		vpBytes += vt.HeapBytes()
	}
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// No work: this benchmark exists to publish size metrics.
		}
		b.ReportMetric(float64(sx.Fact.HeapBytes())/(n*17), "rowheap-B/val")
		b.ReportMetric(float64(vpBytes)/(n*float64(len(sx.VP))), "vp-B/val")
		b.ReportMetric(float64(colPlain.Fact.CompressedBytes())/(n*17), "colplain-B/val")
		b.ReportMetric(float64(col.Fact.CompressedBytes())/(n*17), "colcomp-B/val")
	})
}

// BenchmarkPartitioning reports the Section 6.1 partition-pruning ablation:
// one iteration runs all 13 queries with and without pruning.
func BenchmarkPartitioning(b *testing.B) {
	db := benchDB()
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"pruned", core.RowStore(rowexec.Traditional)},
		{"unpruned", core.Config{Kind: core.KindRow, Design: rowexec.Traditional}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) { benchSystem(b, db, mode.cfg) })
	}
}

// BenchmarkConclusion reports the super-tuple row-store simulation from the
// paper's conclusion (Section 7; `ssb-bench -figure conclusion`).
func BenchmarkConclusion(b *testing.B) {
	db := benchDB()
	for _, sys := range []struct {
		name string
		cfg  core.Config
	}{
		{"VP-naive", core.RowStore(rowexec.VerticalPartitioning)},
		{"VP-super", core.SuperTupleVP()},
		{"CS-nocompress", core.ColumnStore(exec.Config{BlockIter: true, InvisibleJoin: true, LateMat: true})},
		{"CS-full", core.ColumnStore(exec.FullOpt)},
	} {
		sys := sys
		b.Run(sys.name, func(b *testing.B) { benchSystem(b, db, sys.cfg) })
	}
}
