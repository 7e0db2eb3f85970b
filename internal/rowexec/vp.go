package rowexec

import (
	"sort"
	"strconv"

	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// runVPPlan is the fully-vertically-partitioned design: each needed fact
// column lives in its own two-column (position, value) heap table, and the
// plan hash-joins them back together on position (paper Section 6.2.1:
// "the vertical partitioning approach hash-joins the partkey column with
// the filtered part table, and the suppkey column with the filtered
// supplier table, and then hash-joins these two result sets...").
//
// The costs the paper highlights are physical here: every value drags a
// 4-byte position and an 8-byte tuple header through the scan, and each
// additional column is another hash join keyed on position.
func (sx *SystemX) runVPPlan(q *ssb.Query, st *iosim.Stats) *ssb.Result {
	if len(sx.VP) == 0 {
		panic("rowexec: VP design not built")
	}

	// Dimension key sets and group-attribute maps (dimension tables are
	// regular row tables; the interesting costs are on the fact side).
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	for _, f := range q.DimFilters {
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	type dimInfo struct {
		dim   ssb.Dim
		keys  map[int32]struct{} // nil when the dimension has no filter
		ratio float64
	}
	infos := map[ssb.Dim]*dimInfo{}
	for _, dim := range q.DimsUsed() {
		info := &dimInfo{dim: dim, ratio: 1}
		if fs := byDim[dim]; len(fs) > 0 {
			info.keys = sx.dimKeySet(dim, fs, st)
			info.ratio = float64(len(info.keys)) / float64(sx.Dims[dim].NumRows())
		}
		infos[dim] = info
	}

	// Fact measure predicates by column (a query may carry several on one
	// column; all must hold).
	factPred := map[string][]func(int32) bool{}
	for _, f := range q.FactFilters {
		factPred[f.Col] = append(factPred[f.Col], f.Pred.Match)
	}
	passAll := func(preds []func(int32) bool, v int32) bool {
		for _, p := range preds {
			if !p(v) {
				return false
			}
		}
		return true
	}

	// Column processing order: filtered columns first, most selective
	// first, so the position hash table starts as small as possible.
	cols := q.NeededFactColumns()
	selOf := func(c string) float64 {
		if _, ok := factPred[c]; ok {
			return 0.5 // measure predicates are moderately selective
		}
		for dim, info := range infos {
			if dim.FactFK() == c && info.keys != nil {
				return info.ratio
			}
		}
		return 1
	}
	sort.SliceStable(cols, func(i, j int) bool { return selOf(cols[i]) < selOf(cols[j]) })

	keySetOf := func(c string) map[int32]struct{} {
		for dim, info := range infos {
			if dim.FactFK() == c {
				return info.keys
			}
		}
		return nil
	}

	// Hash-join the vertical tables on position, column by column.
	// tuples[pos] accumulates the column values in processing order.
	var tuples map[int32][]int32
	for ci, col := range cols {
		vt, ok := sx.VP[col]
		if !ok {
			panic("rowexec: no vertical table for " + col)
		}
		preds := factPred[col]
		keys := keySetOf(col)
		if ci > 0 {
			// Position-keyed hash join against the accumulated
			// tuples; spill when it exceeds work memory.
			sx.chargeHashSpill(int64(len(tuples))*hashEntryBytes(len(cols)), st)
		}
		if ci == 0 {
			tuples = make(map[int32][]int32, 1024)
			vt.Scan(st, func(_ int32, row rowstore.Row) bool {
				v := row[1].I
				if !passAll(preds, v) {
					return true
				}
				if keys != nil {
					if _, hit := keys[v]; !hit {
						return true
					}
				}
				vals := make([]int32, 1, len(cols))
				vals[0] = v
				tuples[row[0].I] = vals
				return true
			})
			continue
		}
		vt.Scan(st, func(_ int32, row rowstore.Row) bool {
			vals, hit := tuples[row[0].I]
			if !hit {
				return true
			}
			v := row[1].I
			if !passAll(preds, v) || (keys != nil && !inSet(keys, v)) {
				delete(tuples, row[0].I)
				return true
			}
			tuples[row[0].I] = append(vals, v)
			return true
		})
	}

	// Group attribute maps.
	attrMaps := make([]map[int32]string, len(q.GroupBy))
	attrCol := make([]int, len(q.GroupBy))
	colPos := map[string]int{}
	for i, c := range cols {
		colPos[c] = i
	}
	for gi, g := range q.GroupBy {
		attrMaps[gi] = sx.dimAttrMap(g.Dim, g.Col, st)
		attrCol[gi] = colPos[g.Dim.FactFK()]
	}
	agg := ssb.NewAggEval(q.AggSpecs(), func(c string) int { return colPos[c] })

	out := ssb.NewAggregator(q)
	keys := make([]string, len(q.GroupBy))
	for _, vals := range tuples {
		if len(vals) != len(cols) {
			continue // dropped mid-join
		}
		for gi := range q.GroupBy {
			keys[gi] = attrMaps[gi][vals[attrCol[gi]]]
		}
		out.Add(keys, agg.Eval(func(i int) int32 { return vals[i] }))
	}
	return out.Result()
}

func inSet(s map[int32]struct{}, v int32) bool {
	_, ok := s[v]
	return ok
}

// renderInt is strconv.Itoa for int32 (shared by drivers).
func renderInt(v int32) string { return strconv.Itoa(int(v)) }
