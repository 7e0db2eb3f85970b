package exec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/segstore"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// TestSealedDeletesSurviveWithoutLog pins the footer as the checkpoint:
// sealed-side deletes are recorded in the segment footer, so a store
// reopened without its write-ahead log — read-only, or with the write path
// on and a fresh log — still masks them. The first shutdown has nothing to
// seal, so its flush writes a footer for the deletes alone; the second seals
// inserted rows after deletes on both sides of the frontier.
func TestSealedDeletesSurviveWithoutLog(t *testing.T) {
	dir := t.TempDir()
	segPath, logPath := filepath.Join(dir, "data.seg"), filepath.Join(dir, "wal.log")
	if err := SaveSegments(segPath, 0.005, BuildDB(ssb.Generate(0.005), true)); err != nil {
		t.Fatal(err)
	}
	open := func(ingest bool) (*segstore.Store, *DB) {
		t.Helper()
		st, err := segstore.Open(segPath, 0)
		if err != nil {
			t.Fatal(err)
		}
		db, err := OpenSegmentDB(st)
		if err != nil {
			t.Fatal(err)
		}
		if ingest {
			if err := db.EnableDelta(0); err != nil {
				t.Fatal(err)
			}
			if err := db.EnableWAL(logPath, wal.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return st, db
	}
	// count runs COUNT(*) under every engine and requires them to agree.
	count := func(db *DB, filters ...ssb.FactFilter) int64 {
		t.Helper()
		q := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}, FactFilters: filters}
		var n int64 = -1
		for _, eng := range ingestEngines() {
			got := db.Run(q, eng.cfg, nil).Rows[0].AggValues()[0]
			if n >= 0 && got != n {
				t.Fatalf("[%s] count %d, other engines %d", eng.label, got, n)
			}
			n = got
		}
		return n
	}
	shutdown := func(st *segstore.Store, db *DB) {
		t.Helper()
		if err := db.FlushDelta(); err != nil {
			t.Fatal(err)
		}
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(logPath); err != nil {
			t.Fatal(err)
		}
	}
	qty := ssb.FactFilter{Col: "quantity", Pred: compress.Eq(30)}
	disc := ssb.FactFilter{Col: "discount", Pred: compress.Eq(3)}
	tax := ssb.FactFilter{Col: "tax", Pred: compress.Eq(2)}

	st, db := open(true)
	base := count(db)
	n1, err := db.Delete([]ssb.FactFilter{qty})
	if err != nil || n1 == 0 {
		t.Fatalf("delete quantity=30: %d rows, %v", n1, err)
	}
	shutdown(st, db)

	st, db = open(false)
	if got := count(db); got != base-n1 {
		t.Fatalf("read-only reopen without the log: %d rows, want %d (%d deleted rows came back)", got, base-n1, got-(base-n1))
	}
	if got := count(db, qty); got != 0 {
		t.Fatalf("read-only reopen: %d quantity=30 rows visible, want 0", got)
	}
	st.Close()

	st, db = open(true)
	if got := db.DeltaStats().TombstonesSealed; got != n1 {
		t.Fatalf("write path reopened with %d sealed tombstones, want %d", got, n1)
	}
	shape, err := db.BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(3, 70000, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	n2, err := db.Delete([]ssb.FactFilter{disc}) // sealed rows and delta rows
	if err != nil {
		t.Fatal(err)
	}
	if sealed, err := db.CompactNow(); err != nil || sealed == 0 {
		t.Fatalf("CompactNow: sealed %d, %v", sealed, err)
	}
	n3, err := db.Delete([]ssb.FactFilter{tax}) // both sides again, after the pass
	if err != nil {
		t.Fatal(err)
	}
	want := base - n1 + 70000 - n2 - n3
	if got := count(db); got != want {
		t.Fatalf("before shutdown: %d rows, want %d", got, want)
	}
	shutdown(st, db)

	for _, ingest := range []bool{false, true} {
		st, db = open(ingest)
		if got := count(db); got != want {
			t.Errorf("reopen without the log (write path %v): %d rows, want %d", ingest, got, want)
		}
		for _, f := range []ssb.FactFilter{disc, tax} {
			if got := count(db, f); got != 0 {
				t.Errorf("reopen without the log (write path %v): %d %s rows visible, want 0", ingest, got, f.Col)
			}
		}
		if ingest {
			shutdown(st, db)
		} else {
			st.Close()
		}
	}
}

// TestReplayPastCheckpoint pins how a log folds into the write store past a
// footer's checkpoint: insert rows below it are skipped (a batch it cuts
// keeps its tail), sealed tombstones all apply, write-store tombstones below
// it are dropped with their rows, and a log that skips rows or tombstones a
// row it never inserted is refused.
func TestReplayPastCheckpoint(t *testing.T) {
	cols := func(row int64, n int) wal.Insert {
		c := make([][]int32, len(factColOrder))
		for i := range c {
			for r := 0; r < n; r++ {
				c[i] = append(c[i], int32(row)+int32(r))
			}
		}
		return wal.Insert{Row: row, Cols: c}
	}
	recs := []wal.Record{
		cols(0, 3),
		cols(3, 4),
		wal.Delete{Sealed: []uint32{1, 8}, WS: []int64{1, 5}},
		cols(7, 2),
		wal.Delete{WS: []int64{8}},
	}
	rep, err := replayWAL(recs, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	var firsts []int32
	for _, c := range rep.inserts {
		firsts = append(firsts, c[0]...)
	}
	if !reflect.DeepEqual(firsts, []int32{5, 6, 7, 8}) {
		t.Fatalf("replayed rows %v, want log rows 5..8", firsts)
	}
	if got := rep.delSealed.AppendPositions(nil); !reflect.DeepEqual(got, []int32{1, 8}) {
		t.Fatalf("sealed tombstones %v, want [1 8]", got)
	}
	if got := rep.delWS.AppendPositions(nil); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Fatalf("write-store tombstones %v, want delta rows [0 3] (log rows 5 and 8)", got)
	}
	if rep.deleteOps != 2 {
		t.Fatalf("deleteOps = %d, want 2", rep.deleteOps)
	}

	for _, tc := range []struct {
		name string
		recs []wal.Record
		want string
	}{
		{"gap after the checkpoint", []wal.Record{cols(6, 2)}, "does not continue"},
		{"gap between batches", []wal.Record{cols(5, 2), cols(8, 1)}, "does not continue"},
		{"tombstone ahead of its insert", []wal.Record{cols(5, 2), wal.Delete{WS: []int64{7}}}, "not inserted yet"},
		{"sealed tombstone past the file", []wal.Record{wal.Delete{Sealed: []uint32{10}}}, "past file end"},
	} {
		if _, err := replayWAL(tc.recs, 5, 10); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
