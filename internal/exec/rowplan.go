package exec

import (
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/ssb"
)

// rowPlan is a query compiled for row-at-a-time evaluation over tuples of
// one fixed column layout — what a row store's executor would build: fact
// predicates, per-dimension pass sets keyed by foreign-key value, hash
// group extractors and the aggregate shape. Early materialization evaluates
// it over stitched tuples and the row-oriented MV over parsed blobs; neither
// can use the invisible join, so joins are hash probes and group attributes
// come through hash tables.
type rowPlan struct {
	factCols  []int
	factPreds []compress.Pred
	passCols  []int
	passSets  []map[int32]struct{}
	exCols    []int
	inCols    []int   // tuple positions of the aggregate input columns
	in        []int32 // the row's operand vector handed to the aggregator
	agg       *aggregator
}

// compileRowPlan evaluates q's dimension filters into pass sets (dimKeys
// form chosen by kernels), loads the hash group extractors, and binds every
// fact column the row loop reads to its position in the tuple layout. All
// dimension-side I/O is charged to st.
func (db *DB) compileRowPlan(q *ssb.Query, colIdx map[string]int, kernels bool, st *iosim.Stats) *rowPlan {
	rp := &rowPlan{}
	dimOrder, byDim := dimFilterGroups(q)
	for _, dim := range dimOrder {
		pos := db.dimPositions(dim, byDim[dim], kernels, st)
		rp.passSets = append(rp.passSets, keySet(db.dimKeys(dim, pos, kernels, st)))
		rp.passCols = append(rp.passCols, colIdx[dim.FactFK()])
	}
	for _, f := range q.FactFilters {
		rp.factCols = append(rp.factCols, colIdx[f.Col])
		rp.factPreds = append(rp.factPreds, f.Pred)
	}
	exs := make([]*groupExtractor, len(q.GroupBy))
	for i, g := range q.GroupBy {
		exs[i] = db.newGroupExtractor(g)
		exs[i].load(db, true, st) // row engines extract through viaHash
		rp.exCols = append(rp.exCols, colIdx[g.Dim.FactFK()])
	}
	sh := newAggShape(q.AggSpecs(), exs)
	for _, name := range sh.inputs {
		rp.inCols = append(rp.inCols, colIdx[name])
	}
	rp.in = make([]int32, len(rp.inCols))
	rp.agg = newAggregator(sh)
	return rp
}

// eval runs one tuple through the plan — fact predicates, dimension hash
// probes, then group extraction and aggregation — and reports whether it
// qualified. The composite group index is the one the late-materialized
// engines compute, reached through the hash tables.
func (rp *rowPlan) eval(tup []int32) bool {
	for i, pred := range rp.factPreds {
		if !pred.Match(tup[rp.factCols[i]]) {
			return false
		}
	}
	for i, set := range rp.passSets {
		if _, ok := set[tup[rp.passCols[i]]]; !ok {
			return false
		}
	}
	sh := rp.agg.sh
	gi := int64(0)
	for i, ex := range sh.exs {
		gi += int64(ex.viaHash[tup[rp.exCols[i]]]) * sh.strides[i]
	}
	for i, c := range rp.inCols {
		rp.in[i] = tup[c]
	}
	rp.agg.addRow(gi, rp.in)
	return true
}
