package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

// TestIngestEngineGuard pins the facade's honesty rule: once rows have been
// inserted, only the compressed column-store configurations (which union
// the write store) may run — every other physical design was built from the
// frozen base and would silently return stale results.
func TestIngestEngineGuard(t *testing.T) {
	db := Open(0.002)
	if err := db.EnableIngest(false, 0); err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}
	countQ := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}

	// Pre-insert: every engine family still runs (epoch 0, nothing to miss).
	if _, _, err := db.RunPlan(countQ, RowStore(rowexec.Traditional)); err != nil {
		t.Fatalf("row store before any insert: %v", err)
	}

	shape, err := db.ColumnDB(true).BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(1, 777, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if got := db.ColumnDB(true).Epoch(); got != 777 {
		t.Fatalf("epoch %d, want 777", got)
	}

	res, _, err := db.RunPlan(countQ, ColumnStore(exec.FusedOpt))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(db.Data.NumLineorders() + 777); res.Rows[0].Aggs[0] != want {
		t.Fatalf("compressed column count %d, want %d", res.Rows[0].Aggs[0], want)
	}

	for _, cfg := range []Config{
		RowStore(rowexec.Traditional),
		ColumnStore(exec.Config{BlockIter: true, InvisibleJoin: true, LateMat: true}), // plain storage
		Denormalized(exec.DenormMaxC),
		RowMV(),
	} {
		_, _, err := db.RunPlan(ssb.QueryByID("1.1"), cfg)
		if err == nil || !strings.Contains(err.Error(), "frozen base") {
			t.Errorf("%s after insert: err = %v, want frozen-base rejection", cfg.Label(), err)
		}
	}
}

// TestIngestGuardRacesColumnBuild runs row-store queries while the first
// EnableIngest builds the compressed column store and its write store, both
// of which validate reads without a lock to find the epoch. Under -race it
// pins that both are published safely; afterwards an insert must still
// fence the row store off as frozen-base.
func TestIngestGuardRacesColumnBuild(t *testing.T) {
	db := Open(0.002)
	countQ := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}
	var enabled atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The MV design rejects a flightless plan right after the epoch
		// check, so each pass is one validate: the reader spins through
		// the whole column build.
		for {
			_, _, err := db.RunPlan(countQ, RowStore(rowexec.MaterializedViews))
			if err == nil || !strings.Contains(err.Error(), "per-flight MV") {
				t.Errorf("row-store MV before any insert: err = %v, want the no-flight rejection", err)
				return
			}
			if enabled.Load() {
				return
			}
		}
	}()
	err := db.EnableIngest(false, 0)
	enabled.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}

	shape, err := db.ColumnDB(true).BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(2, 10, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	_, _, err = db.RunPlan(countQ, RowStore(rowexec.Traditional))
	if err == nil || !strings.Contains(err.Error(), "frozen base") {
		t.Fatalf("row store after insert: err = %v, want frozen-base rejection", err)
	}
}
