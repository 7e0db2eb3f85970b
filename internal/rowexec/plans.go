package rowexec

import (
	"fmt"
	"sort"

	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// Run executes an SSBM query under the given physical design. prunePartitions
// controls orderdate-year partition pruning for the heap-scanning designs
// (the paper's System X has it on; turning it off reproduces the "without
// partitioning" ablation of Section 6.1).
func (sx *SystemX) Run(q *ssb.Query, d Design, st *iosim.Stats) *ssb.Result {
	return sx.RunOpt(q, d, true, st)
}

// RunOpt is Run with explicit partition-pruning control.
func (sx *SystemX) RunOpt(q *ssb.Query, d Design, prunePartitions bool, st *iosim.Stats) *ssb.Result {
	switch d {
	case Traditional:
		return sx.runScanPlan(q, sx.Fact, prunePartitions, st)
	case TraditionalBitmap:
		return sx.runBitmapPlan(q, st)
	case MaterializedViews:
		mv, ok := sx.MVs[q.Flight]
		if !ok {
			panic(fmt.Sprintf("rowexec: MV design not built (flight %d)", q.Flight))
		}
		return sx.runScanPlan(q, mv, prunePartitions, st)
	case VerticalPartitioning:
		return sx.runVPPlan(q, st)
	default:
		return sx.runIndexOnlyPlan(q, st)
	}
}

// dimBuild is the build side of one dimension hash join.
type dimBuild struct {
	dim ssb.Dim
	// table maps dimension key -> payload of rendered group attributes.
	table map[int32][]rowstore.Value
	// ratio estimates selectivity (|table| / |dim|) for join ordering.
	ratio float64
	// groupCols records which q.GroupBy entries this join's payload
	// serves, in payload order.
	groupCols []int
}

// buildDimHash scans one dimension and prepares the hash-join build side:
// only keys passing the query's filters on that dimension are present, and
// each key carries the rendered group-by attributes the query needs from
// that dimension.
func (sx *SystemX) buildDimHash(q *ssb.Query, dim ssb.Dim, st *iosim.Stats) *dimBuild {
	t := sx.Dims[dim]
	keyIdx := t.Schema.MustColIndex(dim.KeyCol())
	type colFilter struct {
		idx int
		f   ssb.DimFilter
	}
	var cfs []colFilter
	for _, f := range q.DimFilters {
		if f.Dim == dim {
			cfs = append(cfs, colFilter{idx: t.Schema.MustColIndex(f.Col), f: f})
		}
	}
	var attrIdx []int
	var attrIsInt []bool
	b := &dimBuild{dim: dim, table: map[int32][]rowstore.Value{}}
	for gi, g := range q.GroupBy {
		if g.Dim != dim {
			continue
		}
		i := t.Schema.MustColIndex(g.Col)
		attrIdx = append(attrIdx, i)
		attrIsInt = append(attrIsInt, t.Schema.Types[i] == rowstore.TInt)
		b.groupCols = append(b.groupCols, gi)
	}
	t.Scan(st, func(_ int32, row rowstore.Row) bool {
		for _, cf := range cfs {
			if cf.f.IsInt {
				if !cf.f.IntPred().Match(row[cf.idx].I) {
					return true
				}
			} else if !cf.f.MatchStr(row[cf.idx].S) {
				return true
			}
		}
		payload := make([]rowstore.Value, len(attrIdx))
		for k, ai := range attrIdx {
			if attrIsInt[k] {
				payload[k] = rowstore.Value{S: fmt.Sprintf("%d", row[ai].I)}
			} else {
				payload[k] = rowstore.Value{S: row[ai].S}
			}
		}
		b.table[row[keyIdx].I] = payload
		return true
	})
	b.ratio = float64(len(b.table)) / float64(t.NumRows())
	return b
}

// runScanPlan is the traditional plan (and the MV plan, whose source table
// simply has fewer columns): sequential scan -> filter -> pipelined hash
// joins in selectivity order -> hash aggregation (Section 6.2.1).
func (sx *SystemX) runScanPlan(q *ssb.Query, src *rowstore.Table, prune bool, st *iosim.Stats) *ssb.Result {
	var ranges [][2]int32
	if src == sx.Fact {
		ranges = sx.pruneYears(q, prune, st)
	} else {
		// MVs preserve fact row order, so year pruning applies to the
		// same rid ranges.
		ranges = sx.pruneYears(q, prune, st)
	}

	var it Iterator = newTableScan(src, ranges, st)

	// Fact measure predicates.
	if len(q.FactFilters) > 0 {
		type fp struct {
			idx  int
			pred func(int32) bool
		}
		var fps []fp
		for _, f := range q.FactFilters {
			fps = append(fps, fp{idx: src.Schema.MustColIndex(f.Col), pred: f.Pred.Match})
		}
		it = &filter{child: it, pred: func(row rowstore.Row) bool {
			for _, p := range fps {
				if !p.pred(row[p.idx].I) {
					return false
				}
			}
			return true
		}}
	}

	// Hash joins in order of predicate selectivity ("the traditional
	// plan ... pipelines joins in order of predicate selectivity").
	builds := make([]*dimBuild, 0, 4)
	for _, dim := range q.DimsUsed() {
		builds = append(builds, sx.buildDimHash(q, dim, st))
	}
	sort.SliceStable(builds, func(i, j int) bool { return builds[i].ratio < builds[j].ratio })

	width := src.Schema.NumCols()
	groupIdx := make([]int, len(q.GroupBy))
	for _, b := range builds {
		fkIdx := src.Schema.MustColIndex(b.dim.FactFK())
		for pi, gi := range b.groupCols {
			groupIdx[gi] = width + pi
		}
		width += len(b.groupCols)
		it = newHashJoin(it, fkIdx, b.table)
	}

	agg := ssb.NewAggEval(q.AggSpecs(), src.Schema.MustColIndex)
	return hashAgg(it, q, groupIdx, agg)
}
