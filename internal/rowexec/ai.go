package rowexec

import (
	"repro/internal/btree"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// runIndexOnlyPlan is the "all indexes" design: every column is reached
// through an unclustered B+Tree and base tuples are never fetched. As the
// paper's Section 6.2.1 plan for Q2.1 describes, System X first joins the
// needed fact-table columns together on record-id with hash joins ("the
// system is forced to join columns of the fact table together using
// expensive hash joins before filtering the fact table using dimension
// columns" — it cannot defer them), then hash-joins the dimension columns
// obtained from index range scans.
func (sx *SystemX) runIndexOnlyPlan(q *ssb.Query, st *iosim.Stats) *ssb.Result {
	if len(sx.FactIdx) == 0 {
		panic("rowexec: AllIndexes design requires the Indexes build option")
	}
	cols := q.NeededFactColumns()
	colPos := map[string]int{}
	for i, c := range cols {
		colPos[c] = i
	}

	// Step 1: full index scans of every needed fact column, hash-joined
	// on record-id. The first scan seeds a rid-keyed hash table with one
	// entry per fact row — the "giant hash joins" the paper blames for
	// AI's poor performance.
	tuples := make(map[int32][]int32, sx.Fact.NumRows())
	// Each per-column rid join re-materializes the accumulating hash
	// table; once it outgrows work memory every join spills (the paper's
	// "giant hash joins [that] lead to extremely slow performance").
	buildBytes := int64(sx.Fact.NumRows()) * hashEntryBytes(len(cols))
	for ci, col := range cols {
		idx := sx.FactIdx[col]
		st.Read(idx.SizeBytes())
		sx.chargeHashSpill(buildBytes, st)
		if ci == 0 {
			idx.Scan(func(e btree.Entry[int32]) bool {
				vals := make([]int32, len(cols))
				vals[0] = e.Key
				tuples[e.RID] = vals
				return true
			})
			continue
		}
		idx.Scan(func(e btree.Entry[int32]) bool {
			if vals, ok := tuples[e.RID]; ok {
				vals[ci] = e.Key
			}
			return true
		})
	}

	// Step 2: dimension restrictions through index range scans on the
	// dimension attribute indexes; the composite-key payload (Aux) is the
	// dimension primary key, so the base dimension tuples are never
	// fetched either.
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	for _, f := range q.DimFilters {
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	type dimRestrict struct {
		fkPos int
		keys  map[int32]struct{}
	}
	var restricts []dimRestrict
	for _, dim := range q.DimsUsed() {
		fs := byDim[dim]
		if len(fs) == 0 {
			continue
		}
		var keys map[int32]struct{}
		for _, f := range fs {
			ks := sx.dimIndexKeys(dim, f, st)
			if keys == nil {
				keys = ks
				continue
			}
			// Merge rid-lists in memory (paper Section 4).
			for k := range keys {
				if _, ok := ks[k]; !ok {
					delete(keys, k)
				}
			}
		}
		restricts = append(restricts, dimRestrict{fkPos: colPos[dim.FactFK()], keys: keys})
	}

	// Fact measure predicates evaluate on the joined tuples.
	type fp struct {
		pos  int
		pred func(int32) bool
	}
	var fps []fp
	for _, f := range q.FactFilters {
		fps = append(fps, fp{pos: colPos[f.Col], pred: f.Pred.Match})
	}

	// Group attribute maps, also built from index scans (key payload ->
	// attribute value).
	attrMaps := make([]map[int32]string, len(q.GroupBy))
	attrPos := make([]int, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		attrMaps[gi] = sx.dimIndexAttrMap(g.Dim, g.Col, st)
		attrPos[gi] = colPos[g.Dim.FactFK()]
	}
	agg := ssb.NewAggEval(q.AggSpecs(), func(c string) int { return colPos[c] })

	out := ssb.NewAggregator(q)
	keys := make([]string, len(q.GroupBy))
tupleLoop:
	for _, vals := range tuples {
		for _, p := range fps {
			if !p.pred(vals[p.pos]) {
				continue tupleLoop
			}
		}
		for _, r := range restricts {
			if _, ok := r.keys[vals[r.fkPos]]; !ok {
				continue tupleLoop
			}
		}
		for gi := range q.GroupBy {
			keys[gi] = attrMaps[gi][vals[attrPos[gi]]]
		}
		out.Add(keys, agg.Eval(func(i int) int32 { return vals[i] }))
	}
	return out.Result()
}

// dimIndexKeys evaluates one dimension filter through an index range scan
// over the attribute index, returning qualifying primary keys from the
// index's Aux payload. Dimension indexes are built lazily and cached.
func (sx *SystemX) dimIndexKeys(dim ssb.Dim, f ssb.DimFilter, st *iosim.Stats) map[int32]struct{} {
	keys := map[int32]struct{}{}
	if f.IsInt {
		ix := sx.dimIntIndex(dim, f.Col)
		pred := f.IntPred()
		lo, hi, exact := pred.Bounds()
		if !exact {
			// Non-interval predicate: scan the bounds superset and
			// re-check.
			visited := int64(0)
			ix.Tree.Range(lo, hi, func(e btree.Entry[int32]) bool {
				visited++
				if pred.Match(e.Key) {
					keys[e.Aux] = struct{}{}
				}
				return true
			})
			st.AddSeeks(1)
			st.Read(visited * ix.Tree.EntryBytes())
			return keys
		}
		ix.Range(lo, hi, st, func(_, _, aux int32) bool {
			keys[aux] = struct{}{}
			return true
		})
		return keys
	}
	ix := sx.dimStrIndex(dim, f.Col)
	switch {
	case f.Op == compress.OpEq:
		ix.Range(f.StrA, f.StrA, st, func(_ string, _, aux int32) bool {
			keys[aux] = struct{}{}
			return true
		})
	case f.Op == compress.OpBetween:
		ix.Range(f.StrA, f.StrB, st, func(_ string, _, aux int32) bool {
			keys[aux] = struct{}{}
			return true
		})
	default:
		// IN and others: one range probe per member, or a full scan
		// with a residual check.
		if len(f.StrSet) > 0 {
			for _, s := range f.StrSet {
				ix.Range(s, s, st, func(_ string, _, aux int32) bool {
					keys[aux] = struct{}{}
					return true
				})
			}
			return keys
		}
		ix.ScanAll(st, func(k string, _, aux int32) bool {
			if f.MatchStr(k) {
				keys[aux] = struct{}{}
			}
			return true
		})
	}
	return keys
}

// dimIndexAttrMap builds primary key -> rendered attribute from a full scan
// of the dimension attribute index.
func (sx *SystemX) dimIndexAttrMap(dim ssb.Dim, col string, st *iosim.Stats) map[int32]string {
	t := sx.Dims[dim]
	ci := t.Schema.MustColIndex(col)
	m := make(map[int32]string, t.NumRows())
	if t.Schema.Types[ci] == rowstore.TInt {
		ix := sx.dimIntIndex(dim, col)
		ix.ScanAll(st, func(key, _, aux int32) bool {
			m[aux] = renderInt(key)
			return true
		})
		return m
	}
	ix := sx.dimStrIndex(dim, col)
	ix.ScanAll(st, func(key string, _, aux int32) bool {
		m[aux] = key
		return true
	})
	return m
}

// Lazy dimension index caches.

func (sx *SystemX) dimIntIndex(dim ssb.Dim, col string) *rowstore.IntIndex {
	if sx.dimIntIdx == nil {
		sx.dimIntIdx = map[ssb.Dim]map[string]*rowstore.IntIndex{}
	}
	if sx.dimIntIdx[dim] == nil {
		sx.dimIntIdx[dim] = map[string]*rowstore.IntIndex{}
	}
	if ix, ok := sx.dimIntIdx[dim][col]; ok {
		return ix
	}
	ix := rowstore.BuildIntIndex(sx.Dims[dim], col, dim.KeyCol())
	sx.dimIntIdx[dim][col] = ix
	return ix
}

func (sx *SystemX) dimStrIndex(dim ssb.Dim, col string) *rowstore.StrIndex {
	if sx.dimStrIdx == nil {
		sx.dimStrIdx = map[ssb.Dim]map[string]*rowstore.StrIndex{}
	}
	if sx.dimStrIdx[dim] == nil {
		sx.dimStrIdx[dim] = map[string]*rowstore.StrIndex{}
	}
	if ix, ok := sx.dimStrIdx[dim][col]; ok {
		return ix
	}
	ix := rowstore.BuildStrIndex(sx.Dims[dim], col, dim.KeyCol())
	sx.dimStrIdx[dim][col] = ix
	return ix
}
