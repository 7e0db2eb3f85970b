package exec

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/ssb"
	"repro/internal/vector"
)

// denseLimit bounds the composite group-key space for which aggregation
// uses flat dense arrays (one int64 per possible group) instead of a hash
// table.
const denseLimit = 1 << 22

// groupExtractor turns fact foreign-key values into group-by attribute
// codes for one GROUP BY column (join phase 3 from Section 5.4.1). Its code
// space is the attribute's domain — the dictionary, or the zone-map range —
// until compact narrows it to the codes a fused plan's rows can reach.
type groupExtractor struct {
	fkCol   *colstore.Column
	attrCol *colstore.Column // the dimension attribute load reads

	// attr maps dimension position -> attribute code (the paper's
	// "direct array look-up": dimension keys are positions after key
	// reassignment, so extraction indexes straight into the decoded
	// attribute column). Nil until load.
	attr []int32
	// viaHash is what the per-probe and row-oriented engines extract
	// through when the invisible join is disabled: the late-materialized
	// hash join fetches group values from a hash table keyed by the FK
	// value. The block routine always indexes attr.
	viaHash map[int32]int32
	// isDate marks the date dimension, whose key is not a position and
	// therefore always needs a real lookup ("a full join must be
	// performed"): a map on the per-probe path, the DB's dense
	// key->position array (posDense, anchored at keyMin) in the block
	// routine.
	isDate   bool
	posDense []int32
	keyMin   int32

	dict    *compress.Dict
	minCode int32
	card    int32
	// orig maps a compacted code back to its domain code (nil: attr holds
	// domain codes).
	orig []int32
}

// newGroupExtractor lays out extraction for one group column from catalog
// metadata alone — the dictionary, or the attribute's zone-map range, gives
// the code space — so a plan knows its group layout before, and whether or
// not, anything is read. load fetches the values.
func (db *DB) newGroupExtractor(g ssb.GroupCol) *groupExtractor {
	attrCol := db.Dims[g.Dim].MustColumn(g.Col)
	ex := &groupExtractor{
		fkCol:   db.Fact.MustColumn(g.Dim.FactFK()),
		attrCol: attrCol,
		isDate:  g.Dim == ssb.DimDate,
		dict:    attrCol.Dict,
	}
	if ex.isDate {
		ex.posDense, ex.keyMin = db.datePosDense, db.dateKeyMin
	}
	var card int64
	ex.minCode, card = codeSpace(attrCol)
	ex.card = int32(card)
	return ex
}

// codeSpace is a group column's catalog code space: its dictionary's codes,
// or else its zone-map range, as card codes from minCode.
func codeSpace(attrCol *colstore.Column) (minCode int32, card int64) {
	if attrCol.Dict != nil {
		return 0, int64(attrCol.Dict.Size())
	}
	mn, mx := attrCol.MinMax()
	return mn, int64(mx) - int64(mn) + 1
}

// groupSpace is the catalog bound on q's composite group space: the product
// of its group columns' code spaces, computed without charging I/O or
// compiling a plan. Phase 1 only narrows a code space (compact), so no
// plan's space exceeds it. When the product overflows int64, the composite
// index's type, groupSpace saturates at math.MaxInt64 and returns an error:
// no engine keyed by that index can run q.
func (db *DB) groupSpace(q *ssb.Query) (int64, error) {
	total := int64(1)
	for _, g := range q.GroupBy {
		_, card := codeSpace(db.Dims[g.Dim].MustColumn(g.Col))
		card = max(card, 1)
		if total > math.MaxInt64/card {
			return math.MaxInt64, fmt.Errorf("exec: query %s: the %d GROUP BY columns span more than 2^63 groups; group by fewer columns", q.ID, len(q.GroupBy))
		}
		total *= card
	}
	return total, nil
}

// load reads the dimension attribute column, charging st, and for hash-join
// extraction builds the FK value -> attribute code table.
func (ex *groupExtractor) load(db *DB, hashJoin bool, st *iosim.Stats) {
	attr := ex.attrCol.DecodeAll(nil, st)
	if ex.dict == nil {
		for i, v := range attr {
			attr[i] = v - ex.minCode
		}
	}
	ex.attr = attr
	if !hashJoin {
		return
	}
	ex.viaHash = make(map[int32]int32, len(attr))
	if ex.isDate {
		keys := db.Dims[ssb.DimDate].MustColumn("datekey").DecodeAll(nil, st)
		for i, k := range keys {
			ex.viaHash[k] = attr[i]
		}
	} else {
		for i, c := range attr {
			ex.viaHash[int32(i)] = c
		}
	}
}

// compact renumbers, in place in the loaded attr, the codes reachable from
// the admitted dimension positions (nil: every position) to 0..n-1 in
// ascending domain order, and narrows card to n. A position outside the
// admitted set maps to code 0, so attr is only correct at admitted positions.
func (ex *groupExtractor) compact(admitted *vector.Positions) {
	remap := make([]int32, ex.card)
	if admitted == nil {
		for _, c := range ex.attr {
			remap[c] = 1
		}
	} else {
		admitted.ForEach(func(p int32) { remap[ex.attr[p]] = 1 })
	}
	var orig []int32
	for c, reached := range remap {
		if reached != 0 {
			remap[c] = int32(len(orig))
			orig = append(orig, int32(c))
		}
	}
	for i, c := range ex.attr {
		ex.attr[i] = remap[c]
	}
	ex.orig, ex.card = orig, int32(len(orig))
}

// extract maps gathered FK values to attribute codes, appending to dst.
func (ex *groupExtractor) extract(db *DB, fkVals []int32, cfg Config, dst []int32) []int32 {
	switch {
	case ex.viaHash != nil:
		for _, v := range fkVals {
			dst = append(dst, ex.viaHash[v])
		}
	case ex.isDate:
		for _, v := range fkVals {
			dst = append(dst, ex.attr[db.dateByKey[v]])
		}
	case cfg.BlockIter:
		for _, v := range fkVals {
			dst = append(dst, ex.attr[v])
		}
	default:
		it := vector.NewSliceIter(fkVals)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			dst = append(dst, ex.attr[v])
		}
	}
	return dst
}

// render converts an attribute code back to its display value.
func (ex *groupExtractor) render(code int32) string {
	if ex.orig != nil {
		code = ex.orig[code]
	}
	if ex.dict != nil {
		return ex.dict.Value(code)
	}
	return strconv.Itoa(int(code + ex.minCode))
}

// aggShape is the aggregate half of a plan: what is accumulated (specs over
// distinct fact input columns) and how groups are keyed (one composite index
// over the extractors' code spaces — the values phase 1 admits for a fused
// plan, the attribute domains for the ablation engines). Immutable once
// built.
type aggShape struct {
	specs  []ssb.AggSpec
	inputs []string // distinct aggregate input columns
	ia, ib []int    // per-spec operand indexes into inputs (-1 unused)
	// kernelable marks shapes whose every aggregate folds from per-column
	// sum/count/min/max alone — single-operand (or COUNT) specs only, since
	// a two-operand expression such as SUM(price*discount) needs both
	// values of each row, not per-column marginals — so ungrouped blocks
	// aggregate without materializing a single value.
	kernelable bool

	exs []*groupExtractor
	// strides[i] is the multiplier of extractor i's code in the composite
	// group index, total the size of the composite space. dense selects
	// flat arrays over it (total <= denseLimit) instead of a hash table.
	strides []int64
	total   int64
	dense   bool
}

// newAggShape lays out the aggregate cells and the composite group key.
func newAggShape(specs []ssb.AggSpec, exs []*groupExtractor) *aggShape {
	sh := &aggShape{specs: specs, exs: exs, strides: make([]int64, len(exs)), total: 1}
	sh.inputs, sh.ia, sh.ib = ssb.AggInputs(specs)
	sh.kernelable = len(specs) > 0
	for k, s := range specs {
		if sh.ib[k] >= 0 || (s.Func != ssb.FuncCount && sh.ia[k] < 0) {
			sh.kernelable = false
		}
	}
	for i := len(exs) - 1; i >= 0; i-- {
		sh.strides[i] = sh.total
		sh.total *= int64(exs[i].card)
	}
	sh.dense = sh.total <= denseLimit
	return sh
}

// aggregator accumulates one partial result of a shape: the ungrouped
// cells plus qualifying-row count, or per-group cells keyed by composite
// index — flat arrays with a seen bitmap when the shape is dense, a hash
// table above denseLimit. Every engine (and every fused worker, and the
// delta scan) accumulates into one; partials combine with merge, which is
// commutative and associative because AggSpec.Merge is and an untouched
// group holds the identities; render is the only place cells become rows.
//
// Aggregators are reused across queries (fused workers pool them): reset
// sizes one for a shape, scrub zeroes exactly the cells the seen bitmap
// marks so a pooled aggregator's arrays are always all-zero.
type aggregator struct {
	sh    *aggShape
	nAggs int
	// cells / rows accumulate the ungrouped aggregates. rows is what lets
	// merge and render tell "no qualifying row" from real zeros.
	cells []int64
	rows  int64
	// sums holds nAggs cells per composite group index; seen marks
	// populated groups (shared by every aggregate of the group).
	sums []int64
	seen *bitmap.Bitmap
	// groups replaces sums/seen for non-dense shapes (nil otherwise).
	groups map[int64][]int64
}

// newAggregator returns a fresh aggregator for sh.
func newAggregator(sh *aggShape) *aggregator {
	a := &aggregator{}
	a.reset(sh)
	return a
}

// reset prepares a (new or scrubbed) aggregator for sh.
func (a *aggregator) reset(sh *aggShape) {
	a.sh, a.nAggs, a.rows, a.groups = sh, len(sh.specs), 0, nil
	if cap(a.cells) < a.nAggs {
		a.cells = make([]int64, a.nAggs)
	}
	a.cells = a.cells[:a.nAggs]
	ssb.InitCells(sh.specs, a.cells)
	switch {
	case len(sh.exs) == 0:
	case !sh.dense:
		a.groups = map[int64][]int64{}
	default:
		cells := sh.total * int64(a.nAggs)
		if int64(cap(a.sums)) < cells {
			a.sums = make([]int64, cells)
		}
		a.sums = a.sums[:cells]
		if a.seen == nil || a.seen.Len() < int(sh.total) {
			a.seen = bitmap.New(int(sh.total))
		}
	}
}

// scrub returns the aggregator to the all-zero state reset expects,
// touching only the cells its seen bitmap marks — which is what makes
// pooling cheaper than a fresh make per query. It is sound after merge too:
// the destination's seen bitmap holds the union of everything merged in.
func (a *aggregator) scrub() {
	a.groups = nil
	if a.seen == nil {
		return
	}
	nAggs := a.nAggs
	a.seen.ForEach(func(i int) {
		for k := 0; k < nAggs; k++ {
			a.sums[i*nAggs+k] = 0
		}
	})
	a.seen.Reset()
}

// cellsOf returns group gi's cells, initialized to the aggregate identities
// on first touch.
func (a *aggregator) cellsOf(gi int64) []int64 {
	if a.groups != nil {
		cells := a.groups[gi]
		if cells == nil {
			cells = make([]int64, a.nAggs)
			ssb.InitCells(a.sh.specs, cells)
			a.groups[gi] = cells
		}
		return cells
	}
	cells := a.sums[gi*int64(a.nAggs) : (gi+1)*int64(a.nAggs)]
	if !a.seen.Get(int(gi)) {
		a.seen.Set(int(gi))
		ssb.InitCells(a.sh.specs, cells)
	}
	return cells
}

// addRow folds one qualifying row: in holds the row's value of each
// distinct input column (shape.inputs order), gi its composite group index
// (ignored for ungrouped shapes). The row-oriented engines accumulate
// through it one tuple at a time.
func (a *aggregator) addRow(gi int64, in []int32) {
	cells := a.cells
	if len(a.sh.exs) > 0 {
		cells = a.cellsOf(gi)
	} else {
		a.rows++
	}
	for k, s := range a.sh.specs {
		var v int64
		if s.Func != ssb.FuncCount {
			var y int32
			if a.sh.ib[k] >= 0 {
				y = in[a.sh.ib[k]]
			}
			v = s.Expr.Eval(in[a.sh.ia[k]], y)
		}
		cells[k] = s.Combine(cells[k], v)
	}
}

// addRows feeds n columnar rows through addRow one at a time: the
// tuple-at-a-time ablation of the per-probe path, and the route hash-keyed
// shapes take through addBlock.
func (a *aggregator) addRows(gidx []int64, mvals [][]int32, n int) {
	in := make([]int32, len(mvals))
	for r := 0; r < n; r++ {
		for i := range mvals {
			in[i] = mvals[i][r]
		}
		var gi int64
		if gidx != nil {
			gi = gidx[r]
		}
		a.addRow(gi, in)
	}
}

// addBlock folds n qualifying rows given column-wise: mvals holds each
// distinct input column's values, gidx each row's composite group index
// (nil for ungrouped shapes). The single-column SUM loops are kept
// specialized — they are the hot path for every fixed SSBM flight.
func (a *aggregator) addBlock(gidx []int64, mvals [][]int32, n int) {
	if a.groups != nil {
		a.addRows(gidx, mvals, n)
		return
	}
	sh, nAggs := a.sh, int64(a.nAggs)
	if gidx == nil {
		a.rows += int64(n)
	} else {
		// Initialize newly seen groups to the aggregate identities, then
		// accumulate every aggregate.
		for _, gi := range gidx {
			if !a.seen.Get(int(gi)) {
				a.seen.Set(int(gi))
				ssb.InitCells(sh.specs, a.sums[gi*nAggs:(gi+1)*nAggs])
			}
		}
	}
	for k, s := range sh.specs {
		var va, vb []int32
		if sh.ia[k] >= 0 {
			va = mvals[sh.ia[k]]
		}
		if sh.ib[k] >= 0 {
			vb = mvals[sh.ib[k]]
		}
		if gidx == nil {
			cell := a.cells[k]
			switch {
			case s.Func == ssb.FuncCount:
				cell += int64(n)
			case s.Func == ssb.FuncSum && s.Expr.Op == '*':
				for r, v := range va {
					cell += int64(v) * int64(vb[r])
				}
			case s.Func == ssb.FuncSum && s.Expr.Op == '-':
				for r, v := range va {
					cell += int64(v) - int64(vb[r])
				}
			case s.Func == ssb.FuncSum:
				for _, v := range va {
					cell += int64(v)
				}
			default:
				for r, v := range va {
					var b int32
					if vb != nil {
						b = vb[r]
					}
					cell = s.Combine(cell, s.Expr.Eval(v, b))
				}
			}
			a.cells[k] = cell
			continue
		}
		ko := int64(k)
		switch {
		case s.Func == ssb.FuncCount:
			for _, gi := range gidx {
				a.sums[gi*nAggs+ko]++
			}
		case s.Func == ssb.FuncSum && s.Expr.Op == '*':
			for r, gi := range gidx {
				a.sums[gi*nAggs+ko] += int64(va[r]) * int64(vb[r])
			}
		case s.Func == ssb.FuncSum && s.Expr.Op == '-':
			for r, gi := range gidx {
				a.sums[gi*nAggs+ko] += int64(va[r]) - int64(vb[r])
			}
		case s.Func == ssb.FuncSum:
			for r, gi := range gidx {
				a.sums[gi*nAggs+ko] += int64(va[r])
			}
		default:
			for r, gi := range gidx {
				var b int32
				if vb != nil {
					b = vb[r]
				}
				c := gi*nAggs + ko
				a.sums[c] = s.Combine(a.sums[c], s.Expr.Eval(va[r], b))
			}
		}
	}
}

// addFolded widens per-column kernel accumulators (one per distinct input
// column) covering n selected rows into the ungrouped cells — the landing
// point of the decode-free AggSelect folds of kernelable shapes.
func (a *aggregator) addFolded(accs []compress.AggAcc, n int64) {
	a.rows += n
	for k, s := range a.sh.specs {
		switch s.Func {
		case ssb.FuncCount:
			a.cells[k] += n
		case ssb.FuncSum:
			a.cells[k] += accs[a.sh.ia[k]].Sum
		case ssb.FuncMin:
			if acc := &accs[a.sh.ia[k]]; acc.Count > 0 {
				a.cells[k] = s.Combine(a.cells[k], acc.Min)
			}
		case ssb.FuncMax:
			if acc := &accs[a.sh.ia[k]]; acc.Count > 0 {
				a.cells[k] = s.Combine(a.cells[k], acc.Max)
			}
		}
	}
}

// numGroups returns the number of result rows render would produce.
func (a *aggregator) numGroups() int64 {
	switch {
	case len(a.sh.exs) == 0:
		return 1
	case a.groups != nil:
		return int64(len(a.groups))
	default:
		return int64(a.seen.Count())
	}
}

// forEachGroup visits every populated group's cells.
func (a *aggregator) forEachGroup(fn func(gi int64, cells []int64)) {
	if a.groups != nil {
		for gi, cells := range a.groups {
			fn(gi, cells)
		}
		return
	}
	nAggs := a.nAggs
	a.seen.ForEach(func(i int) { fn(int64(i), a.sums[i*nAggs:(i+1)*nAggs]) })
}

// merge folds b — another partial of the same shape — into a. Per-cell
// AggSpec.Merge (addition for SUM/COUNT, min/max otherwise) is commutative
// and associative, and cellsOf hands out the identities for groups a has
// not seen, so partials may combine in any order and any tree: morsel
// worker count, and which side of the sealed/delta frontier a row sits on,
// never show through in results.
func (a *aggregator) merge(b *aggregator) {
	specs := a.sh.specs
	mergeCells := func(dst, src []int64) {
		for k, s := range specs {
			dst[k] = s.Merge(dst[k], src[k])
		}
	}
	if len(a.sh.exs) == 0 {
		a.rows += b.rows
		mergeCells(a.cells, b.cells)
		return
	}
	b.forEachGroup(func(gi int64, cells []int64) { mergeCells(a.cellsOf(gi), cells) })
}

// render turns the accumulated cells into result rows: one row of
// finalized cells for ungrouped shapes (all zeros when nothing qualified),
// one row per populated group otherwise. Rows copy out of the cells, so the
// aggregator may be scrubbed and reused afterwards.
func (a *aggregator) render(id string) *ssb.Result {
	sh := a.sh
	if len(sh.exs) == 0 {
		return ssb.NewResult(id, []ssb.ResultRow{ssb.MakeRow(nil, ssb.FinalizeCells(sh.specs, a.cells, a.rows))})
	}
	var rows []ssb.ResultRow
	a.forEachGroup(func(gi int64, cells []int64) {
		keys := make([]string, len(sh.exs))
		for i, ex := range sh.exs {
			keys[i] = ex.render(int32(gi / sh.strides[i]))
			gi %= sh.strides[i]
		}
		rows = append(rows, ssb.MakeRow(keys, cells))
	})
	return ssb.NewResult(id, rows)
}

// aggregate runs join phase 3 plus aggregation over the final position
// list of the per-probe pipeline. Gathers observe ctx per candidate block,
// so a canceled query stops acquiring fact segments mid-extraction too; the
// (garbage) partial accumulation is discarded by RunCtx.
func (db *DB) aggregate(ctx context.Context, plan *Plan, pos *vector.Positions, agg *aggregator, st *iosim.Stats) {
	n := pos.Len()
	cfg := plan.cfg

	// Ungrouped single-operand aggregates fold directly on the compressed
	// blocks: each distinct input column is walked once with AggSelect
	// (no encoding decodes a value for it) instead of gathering a
	// per-row value column. I/O accounting is unchanged — the kernel walks
	// the same candidate blocks the gather would.
	if plan.foldsBlocks() {
		accs := make([]compress.AggAcc, len(plan.inputs))
		for i, name := range plan.inputs {
			accs[i] = compress.NewAggAcc()
			db.Fact.MustColumn(name).AggSelectPositions(ctx, pos, st, &accs[i])
		}
		agg.addFolded(accs, int64(n))
		return
	}

	// Gather aggregate inputs and group foreign keys at qualifying
	// positions only.
	gather := func(col *colstore.Column) []int32 {
		vals := col.GatherCtx(ctx, pos, nil, st)
		if len(vals) < n {
			// Canceled mid-gather: pad so downstream indexing stays in
			// bounds until RunCtx discards the result.
			vals = append(vals, make([]int32, n-len(vals))...)
		}
		return vals
	}
	mvals := make([][]int32, len(plan.inputs))
	for i, name := range plan.inputs {
		mvals[i] = gather(db.Fact.MustColumn(name))
	}
	var gidx []int64
	if len(plan.exs) > 0 {
		gidx = make([]int64, n)
		var codes []int32
		for i, ex := range plan.exs {
			// The FK gathers are full fact-column walks: stop at the first
			// one that observes the cancellation.
			if ctx.Err() != nil {
				return
			}
			codes = ex.extract(db, gather(ex.fkCol), cfg, codes[:0])
			for r, c := range codes {
				gidx[r] += int64(c) * plan.strides[i]
			}
		}
	}
	if cfg.BlockIter {
		agg.addBlock(gidx, mvals, n)
	} else {
		agg.addRows(gidx, mvals, n)
	}
}
