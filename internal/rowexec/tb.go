package rowexec

import (
	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// runBitmapPlan is the "traditional (bitmap)" design T(B): plans are biased
// to build rid bitmaps from indexes for every predicate, AND them, and then
// fetch only the heap pages containing matches. As the paper observes, this
// "sometimes helps — especially when the selectivity of queries is low —
// ... in other cases merging bitmaps adds overhead and bitmap scans can be
// slower than pure sequential scans": building the FK-side bitmaps costs
// one index probe per qualifying dimension key.
func (sx *SystemX) runBitmapPlan(q *ssb.Query, st *iosim.Stats) *ssb.Result {
	if sx.DiscountBM == nil || len(sx.FactIdx) == 0 {
		panic("rowexec: bitmap design requires Bitmaps and Indexes build options")
	}
	n := sx.Fact.NumRows()
	var acc *bitmap.Bitmap
	and := func(bm *bitmap.Bitmap) {
		if acc == nil {
			acc = bm
		} else {
			acc.And(bm)
		}
	}

	// Fact measure predicates via bitmap indexes where one exists
	// (discount and quantity); other measure columns fall back to residual
	// predicates evaluated during the heap fetch.
	type residual struct {
		idx  int
		pred func(int32) bool
	}
	var residuals []residual
	for _, f := range q.FactFilters {
		pred := f.Pred
		switch f.Col {
		case "discount":
			and(sx.DiscountBM.Lookup(pred.Match, st))
		case "quantity":
			and(sx.QuantityBM.Lookup(pred.Match, st))
		default:
			residuals = append(residuals, residual{idx: sx.Fact.Schema.MustColIndex(f.Col), pred: pred.Match})
		}
	}

	// Dimension predicates: qualifying dimension keys probe the fact FK
	// B+Tree one key at a time; matching rids accumulate into a bitmap.
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	var dimOrder []ssb.Dim
	for _, f := range q.DimFilters {
		if _, ok := byDim[f.Dim]; !ok {
			dimOrder = append(dimOrder, f.Dim)
		}
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	for _, dim := range dimOrder {
		keys := sx.dimKeySet(dim, byDim[dim], st)
		idx := sx.FactIdx[dim.FactFK()]
		bm := bitmap.New(n)
		if len(keys) >= rangeScanKeyThreshold {
			// Large key sets: one index range scan over [min, max]
			// with a membership filter beats thousands of random
			// probes (one seek instead of one per key).
			var lo, hi int32
			first := true
			for k := range keys {
				if first || k < lo {
					lo = k
				}
				if first || k > hi {
					hi = k
				}
				first = false
			}
			st.AddSeeks(1)
			visited := int64(0)
			idx.Range(lo, hi, func(e btree.Entry[int32]) bool {
				visited++
				if _, ok := keys[e.Key]; ok {
					bm.Set(int(e.RID))
				}
				return true
			})
			st.Read(visited * idx.EntryBytes())
		} else {
			for k := range keys {
				st.AddSeeks(1)
				visited := int64(0)
				idx.Range(k, k, func(e btree.Entry[int32]) bool {
					bm.Set(int(e.RID))
					visited++
					return true
				})
				st.Read(visited * idx.EntryBytes())
			}
		}
		and(bm)
	}

	if acc == nil {
		acc = bitmap.NewFull(n)
	}

	// Group-by build sides (unfiltered here: the bitmaps already applied
	// the dimension restrictions, but keys must still resolve to group
	// attributes).
	builds := make([]*dimBuild, 0, 4)
	for _, dim := range q.DimsUsed() {
		builds = append(builds, sx.buildDimHash(q, dim, st))
	}

	fkIdx := make([]int, len(builds))
	for i, b := range builds {
		fkIdx[i] = sx.Fact.Schema.MustColIndex(b.dim.FactFK())
	}
	agg := ssb.NewAggEval(q.AggSpecs(), sx.Fact.Schema.MustColIndex)

	out := ssb.NewAggregator(q)
	keys := make([]string, len(q.GroupBy))
	sx.Fact.ScanRidBitmap(acc, st, func(_ int32, row rowstore.Row) bool {
		for _, r := range residuals {
			if !r.pred(row[r.idx].I) {
				return true
			}
		}
		for i, b := range builds {
			payload, hit := b.table[row[fkIdx[i]].I]
			if !hit {
				return true
			}
			for pi, gi := range b.groupCols {
				keys[gi] = payload[pi].S
			}
		}
		out.Add(keys, agg.Eval(func(i int) int32 { return row[i].I }))
		return true
	})
	return out.Result()
}

// rangeScanKeyThreshold is the optimizer crossover between per-key index
// probes and a single filtered index range scan when building a rid bitmap:
// above it, the accumulated seek cost of individual probes exceeds one
// sequential pass over the relevant leaf range.
const rangeScanKeyThreshold = 64
