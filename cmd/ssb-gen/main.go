// Command ssb-gen generates an SSBM dataset and reports its shape: table
// cardinalities, per-column encodings, and measured vs published query
// selectivities. Storage footprints under each physical design (the
// paper's §6.2 size table) are `ssb-bench -figure sizes`.
//
// Usage:
//
//	ssb-gen [-sf 0.1] [-verify] [-encodings]
//	ssb-gen -sf 1 -out ssb_sf1.seg     # compressed segment store
//	ssb-gen -append 100000 -seed 7 -out ssb_sf1.seg  # append seeded rows
//	                                   # to an existing segment store via
//	                                   # the write path (WS -> compaction)
//
// -out writes the segment-store format, whatever the file is called: the
// physical compressed column layout with per-segment zone maps, which
// ssb-serve and ssb-query scan lazily through a buffer pool under
// -mem-budget. It is the only persistent format; the engines that need the
// raw dataset (row stores, denormalized tables, ablations) regenerate it
// from -sf, of which it is a pure function.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ssb"
	"repro/internal/wal"
)

func main() {
	sf := flag.Float64("sf", 0.1, "SSBM scale factor (paper uses 10)")
	out := flag.String("out", "", "write the generated dataset to this file as a compressed segment store")
	verify := flag.Bool("verify", false, "check measured selectivities against the paper's published values")
	encodings := flag.Bool("encodings", false, "print per-column block encodings of every table of the compressed column store, and a TOTAL census line")
	appendRows := flag.Int("append", 0, "append this many seeded fact rows to the existing -out segment store via the write path (no regeneration)")
	appendSeed := flag.Int64("seed", 1, "seed for -append row generation")
	walPath := flag.String("wal", "", "with -append: route the batch through a write-ahead log at this path (durable ingest; replays any leftover log first)")
	flag.Parse()

	if *appendRows > 0 {
		if err := appendToSeg(*out, *appendRows, *appendSeed, *walPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("Generating SSBM at SF=%g ...\n", *sf)
	d := ssb.Generate(*sf)
	col := exec.BuildDB(d, true)
	if *out != "" {
		if err := exec.SaveSegments(*out, *sf, col); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if fi, err := os.Stat(*out); err == nil {
			fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(fi.Size())/1e6)
		}
	}
	fmt.Printf("  lineorder: %10d rows\n", d.NumLineorders())
	fmt.Printf("  customer:  %10d rows\n", len(d.Customer.Key))
	fmt.Printf("  supplier:  %10d rows\n", len(d.Supplier.Key))
	fmt.Printf("  part:      %10d rows\n", len(d.Part.Key))
	fmt.Printf("  dwdate:    %10d rows\n", d.NumDates())

	if *encodings {
		fmt.Println("\nPer-column encodings (compressed column store):")
		tables := []*colstore.Table{col.Fact}
		for dim := ssb.DimCustomer; dim <= ssb.DimDate; dim++ {
			tables = append(tables, col.Dims[dim])
		}
		total := map[compress.Encoding]int{}
		for _, t := range tables {
			fmt.Printf("%s:\n", t.Name)
			for _, line := range t.EncodingSummary() {
				fmt.Println("  " + line)
			}
			for _, name := range t.ColumnNames() {
				for e, n := range t.MustColumn(name).Encodings() {
					total[e] += n
				}
			}
		}
		// The census of block encodings over the whole store, one count
		// per live tag (zeros included).
		fmt.Print("TOTAL:")
		blocks := 0
		for e := compress.Plain; e.Valid() == nil; e++ {
			fmt.Printf(" %s x%d", e, total[e])
			blocks += total[e]
		}
		fmt.Printf(" (%d blocks)\n", blocks)
	}

	if *verify {
		fmt.Println("\nSelectivity check (measured vs paper Section 3):")
		bad := 0
		for _, q := range ssb.Queries() {
			got := ssb.Selectivity(d, q)
			fmt.Printf("  Q%-4s measured %.3e   paper %.3e\n", q.ID, got, q.PaperSelectivity)
			expectRows := q.PaperSelectivity * float64(d.NumLineorders())
			if expectRows >= 20 && (got > q.PaperSelectivity*2.5 || got < q.PaperSelectivity/2.5) {
				bad++
			}
		}
		if bad > 0 {
			fmt.Printf("%d queries out of tolerance\n", bad)
			os.Exit(1)
		}
		fmt.Println("all selectivities within tolerance")
	}
}

// appendToSeg exercises the full write path from the CLI: open an existing
// segment file, push a seeded batch through the write store, and flush so
// the tuple mover compacts everything — full 64K-row blocks plus a final
// partial tail — back into the file. With walPath set the batch is logged
// and group-committed before it is acked, and a leftover log from a crashed
// earlier run is replayed into the write store before the new rows land.
func appendToSeg(path string, rows int, seed int64, walPath string) error {
	if path == "" {
		return fmt.Errorf("ssb-gen: -append needs -out pointing at an existing segment store")
	}
	db, err := core.OpenSegmentStore(path, 0)
	if err != nil {
		return err
	}
	st := db.SegmentStore()
	col := db.ColumnDB(true)
	before := col.NumRows()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	sizeBefore := fi.Size()
	if err := db.EnableIngestWAL(false, 0, walPath, wal.Options{}); err != nil {
		return err
	}
	shape, err := col.BatchShape()
	if err != nil {
		return err
	}
	batch, err := ssb.RandBatch(seed, rows, shape)
	if err != nil {
		return err
	}
	if _, err := col.Insert(batch); err != nil {
		return err
	}
	if err := col.FlushDelta(); err != nil {
		return err
	}
	ds := col.DeltaStats()
	ps := st.Pool().Stats()
	if fi, err = os.Stat(path); err != nil {
		return err
	}
	// The file grows by the payload plus one footer and trailer per pass;
	// a growth well past the payload is bytes no live directory uses.
	fmt.Printf("appended %d rows (seed %d) to %s: %d -> %d rows, %d compaction passes, %.2f MB payload written, file grew %.2f MB, %d live segments\n",
		rows, seed, path, before, col.NumRows(), ds.Compactions,
		float64(ps.AppendedBytes)/1e6, float64(fi.Size()-sizeBefore)/1e6, st.NumSegments())
	if walPath != "" {
		ws := col.WALStats()
		fmt.Printf("wal: %d appends, %d fsyncs, %d replayed, %d bytes\n",
			ws.Appends, ws.Syncs, ws.Replayed, ws.Bytes)
		if err := col.CloseWAL(); err != nil {
			return err
		}
	}
	if fi, err := os.Stat(path); err == nil {
		fmt.Printf("file is now %.1f MB\n", float64(fi.Size())/1e6)
	}
	return st.Close()
}
