package exec

import (
	"context"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// runEarlyMat is the early-materialization path ("l" in Figure 7): every
// needed fact column is read in full and stitched into tuples at the very
// start of the plan; all predicates, joins and aggregation then run
// row-at-a-time over constructed tuples, exactly like a row store executing
// over a column-sourced materialized view. The paper removes late
// materialization last because early materialization forces decompression
// during tuple construction and precludes the invisible join.
//
// It returns the sealed side's aggregate; a canceled run returns nil (RunCtx
// surfaces ctx.Err before looking at it).
func (db *DB) runEarlyMat(ctx context.Context, q *ssb.Query, cfg Config, st *iosim.Stats, del *bitmap.Bitmap, tr *obs.Trace) *aggregator {
	if tr != nil {
		tr.Engine, tr.Workers = "early-mat", 1
	}
	rec := newStageRec(tr, st)
	needed := q.NeededFactColumns()
	colIdx := make(map[string]int, len(needed))
	cols := make([][]int32, len(needed))
	for i, name := range needed {
		if ctx.Err() != nil {
			return nil
		}
		colIdx[name] = i
		cols[i] = db.Fact.MustColumn(name).DecodeAllCtx(ctx, nil, st)
	}
	n := db.numRows
	if rec != nil {
		rec.rec("decode-columns", fmt.Sprintf("%d fact columns in full", len(needed)), st, 0, int64(n), 0)
	}

	// Tuple construction: one allocation per row, before any predicate
	// runs. This is deliberately the expensive step ("the more selective
	// the predicate, the more wasteful it is to construct tuples at the
	// start of a query plan"). Cancellation is observed at the same 64K
	// granularity as the block pipelines — this loop is where an abandoned
	// early-mat query burns its time.
	rows := make([][]int32, n)
	for r := 0; r < n; r++ {
		if r&0xFFFF == 0 && ctx.Err() != nil {
			return nil
		}
		tup := make([]int32, len(cols))
		for c := range cols {
			tup[c] = cols[c][r]
		}
		rows[r] = tup
	}
	rec.rec("construct-tuples", "", st, int64(n), int64(n), 0)

	// Row-store-style join structures: per-dimension pass sets and hash
	// group extractors. With kernels on, the dimension predicates evaluate
	// natively on the compressed dimension columns exactly as the
	// late-materialized planner's phase 1 does; the fact-side tuple
	// construction above stays fully decoded — that is the
	// early-materialization cost the ablation measures, and the dimension
	// tables are not part of it.
	rp := db.compileRowPlan(q, colIdx, !cfg.NoKernels, st)
	rec.rec("plan", "dimension pass sets + extractors", st, 0, 0, 0)
	var qual, tomb int64

	for r := 0; r < n; r++ {
		// One cancellation check per 64K rows — the same granularity as
		// the block-iterated pipelines.
		if r&0xFFFF == 0 && ctx.Err() != nil {
			return nil
		}
		// Deletion vector first: a tombstoned row fails every plan the same
		// way, before any predicate evaluates.
		if del != nil && del.Get(r) {
			tomb++
			continue
		}
		if rp.eval(rows[r]) {
			qual++
		}
	}
	rec.rec("row-loop", "filters + hash probes + aggregation", st, int64(n), qual, tomb)
	return rp.agg
}
