package exec

import (
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/ssb"
)

// TestSegmentZoneMapPruningSSBM is the acceptance check for zone-map
// pruning on a real SSBM flight: at SF=0.05 the fact table spans several
// 64K-row segments, and flight 1's selective year predicate must keep the
// fused scan from ever fetching the segments its orderdate zone maps
// exclude. Without pruning, each of the three probe columns (orderdate,
// quantity, discount) would fault in every fact segment.
func TestSegmentZoneMapPruningSSBM(t *testing.T) {
	data := ssb.Generate(0.05)
	dbc := BuildDB(data, true)
	segDB, store := segBackedDB(t, dbc, data.SF, 0)

	factBlocks := (dbc.NumRows() + colstore.BlockSize - 1) / colstore.BlockSize
	if factBlocks < 3 {
		t.Fatalf("SF too small to exercise pruning: %d fact segments", factBlocks)
	}

	q := ssb.QueryByID("1.1")
	want := dbc.Run(q, FusedOpt, nil)
	got := segDB.Run(q, FusedOpt, nil)
	if !got.Equal(want) {
		t.Fatalf("segment-backed Q1.1 diverges:\n%s", want.Diff(got))
	}

	ps := store.Pool().Stats()
	// Q1.1 probes three fact columns; a zone-map-blind scan would read at
	// least 3*factBlocks fact segments. The year-1993 predicate covers
	// ~1/7 of the orderdate-sorted fact table, so pruning must skip most
	// of them — and with an unbounded pool, misses counts exactly the
	// distinct segments ever read.
	unpruned := int64(3 * factBlocks)
	if ps.Misses >= unpruned {
		t.Errorf("zone-map pruning skipped nothing: %d segment fetches, a blind scan needs >= %d", ps.Misses, unpruned)
	}
	if ps.Misses == 0 {
		t.Error("no segments fetched at all — the query cannot have run")
	}
	t.Logf("Q1.1 fetched %d segments (file holds %d; blind probe scan alone would read %d)",
		ps.Misses, store.NumSegments(), unpruned)
}

// TestSegmentDBAllFlights runs every SSBM query over a budget-constrained
// segment store under both column pipelines (the fused one at 1 and 8
// workers), demanding exact agreement with the in-memory engines while evictions
// churn the pool.
func TestSegmentDBAllFlights(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	// The tightest budget Open accepts: it must at least fit the largest
	// single segment (~148KB at this SF) — anything smaller is rejected as
	// a guaranteed eviction livelock — while staying far below the ~1.4MB
	// working set so the pool churns for the whole run.
	segDB, store := segBackedDB(t, dbc, data.SF, 160<<10)

	for _, q := range ssb.Queries() {
		want := ssb.Reference(data, q)
		w8 := FusedOpt
		w8.Workers = 8
		for _, cfg := range []Config{FullOpt, FusedOpt, w8} {
			if got := segDB.Run(q, cfg, nil); !got.Equal(want) {
				t.Errorf("Q%s [%s fused=%v workers=%d] over segment store diverges:\n%s",
					q.ID, cfg.Code(), cfg.Fused, cfg.Workers, want.Diff(got))
			}
		}
	}
	ps := store.Pool().Stats()
	if ps.Evictions == 0 {
		t.Errorf("128KB budget produced no evictions over %d segments — budget not enforced", store.NumSegments())
	}
}

// TestSaveSegmentsRejectsPlain pins the compressed-only contract.
func TestSaveSegmentsRejectsPlain(t *testing.T) {
	data := ssb.Generate(0.002)
	plain := BuildDB(data, false)
	err := SaveSegments(t.TempDir()+"/x.seg", data.SF, plain)
	if err == nil || !strings.Contains(err.Error(), "compressed") {
		t.Fatalf("err = %v", err)
	}
}
