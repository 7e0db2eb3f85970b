package exec

import (
	"context"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
	"repro/internal/vector"
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
		tr.Engine = "early-mat"
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

	// Row-store-style join structures: per-dimension pass sets and
	// group-attribute maps keyed by FK value.
	passSets := make([]map[int32]struct{}, 0, 4)
	passCols := make([]int, 0, 4)
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	var dimOrder []ssb.Dim
	for _, f := range q.DimFilters {
		if _, ok := byDim[f.Dim]; !ok {
			dimOrder = append(dimOrder, f.Dim)
		}
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	for _, dim := range dimOrder {
		dimTab := db.Dims[dim]
		var set map[int32]struct{}
		if !cfg.NoKernels {
			// Dimension predicates evaluate natively on the compressed
			// dimension columns (run/bit-vector blocks filter without
			// decoding), exactly as the late-materialized planner's phase 1
			// does. The fact-side tuple construction above stays fully
			// decoded — that is the early-materialization cost the ablation
			// measures; the dimension tables are not part of it.
			var dimPos *vector.Positions
			for _, f := range byDim[dim] {
				col := dimTab.MustColumn(f.Col)
				pred := dimFilterPred(col, f)
				if dimPos == nil {
					dimPos = col.Filter(pred, st)
				} else {
					dimPos = col.FilterAt(pred, dimPos, st)
				}
			}
			set = make(map[int32]struct{}, dimPos.Len())
			if dim == ssb.DimDate {
				for _, k := range dimTab.MustColumn("datekey").Gather(dimPos, nil, st) {
					set[k] = struct{}{}
				}
			} else {
				for _, p := range dimPos.ToSlice(nil) {
					set[p] = struct{}{}
				}
			}
		} else {
			pos := map[int32]struct{}{}
			for fi, f := range byDim[dim] {
				col := dimTab.MustColumn(f.Col)
				pred := dimFilterPred(col, f)
				vals := col.DecodeAll(nil, st)
				if fi == 0 {
					for i, v := range vals {
						if pred.Match(v) {
							pos[int32(i)] = struct{}{}
						}
					}
					continue
				}
				for p := range pos {
					if !pred.Match(vals[p]) {
						delete(pos, p)
					}
				}
			}
			// Key the pass set by FK value: positions for customer /
			// supplier / part, datekeys for date.
			set = make(map[int32]struct{}, len(pos))
			if dim == ssb.DimDate {
				keys := dimTab.MustColumn("datekey").DecodeAll(nil, st)
				for p := range pos {
					set[keys[p]] = struct{}{}
				}
			} else {
				for p := range pos {
					set[p] = struct{}{}
				}
			}
		}
		passSets = append(passSets, set)
		passCols = append(passCols, colIdx[dim.FactFK()])
	}

	// Fact measure filters.
	type factPred struct {
		col  int
		pred func(int32) bool
	}
	var factPreds []factPred
	for _, f := range q.FactFilters {
		pred := f.Pred
		factPreds = append(factPreds, factPred{col: colIdx[f.Col], pred: pred.Match})
	}

	// Group extraction maps (always hash-based here: early
	// materialization precludes the invisible join's direct extraction).
	hashCfg := cfg
	hashCfg.InvisibleJoin = false
	exs := make([]*groupExtractor, len(q.GroupBy))
	exCols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		exs[i] = db.newGroupExtractor(g)
		exs[i].load(db, hashCfg, st)
		exCols[i] = colIdx[g.Dim.FactFK()]
	}

	sh := newAggShape(q.AggSpecs(), exs)
	agg := newAggregator(sh)
	// Tuple positions of the aggregate input columns; in is the per-row
	// operand vector handed to the aggregator.
	inCols := make([]int, len(sh.inputs))
	for i, name := range sh.inputs {
		inCols[i] = colIdx[name]
	}
	in := make([]int32, len(inCols))
	rec.rec("plan", "dimension pass sets + extractors", st, 0, 0, 0)
	var qual, tomb int64

rowLoop:
	for r := 0; r < n; r++ {
		// One cancellation check per 64K rows — the same granularity as
		// the block-iterated pipelines.
		if r&0xFFFF == 0 && ctx.Err() != nil {
			return nil
		}
		// Deletion vector first: a tombstoned row fails every plan the same
		// way, before any predicate evaluates.
		if del != nil && del.Get(r) {
			if rec != nil {
				tomb++
			}
			continue
		}
		tup := rows[r]
		for _, fp := range factPreds {
			if !fp.pred(tup[fp.col]) {
				continue rowLoop
			}
		}
		for i, set := range passSets {
			if _, ok := set[tup[passCols[i]]]; !ok {
				continue rowLoop
			}
		}
		if rec != nil {
			qual++
		}
		// Same composite group index as the late-mat paths, so results
		// are identical — reached through the hash tables.
		gi := int64(0)
		for i := range exs {
			gi += int64(exs[i].viaHash[tup[exCols[i]]]) * sh.strides[i]
		}
		for i, c := range inCols {
			in[i] = tup[c]
		}
		agg.addRow(gi, in)
	}
	rec.rec("row-loop", "filters + hash probes + aggregation", st, int64(n), qual, tomb)
	return agg
}
