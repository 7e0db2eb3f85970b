package exec

import (
	"context"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
	"repro/internal/vector"
)

// Run executes an SSBM query under the given configuration. The DB's
// storage must agree with cfg.Compression (BuildDB's compressed flag).
//
// Run is safe to call concurrently from multiple goroutines on one shared
// DB as long as every call owns its st: all plan, probe, scratch and
// aggregation state is per-call (pooled fused workers are scrubbed on
// release), and segment-backed columns acquire blocks through the
// concurrency-safe buffer pool. iosim.Stats itself is single-owner — two
// concurrent calls must not share one st.
func (db *DB) Run(q *ssb.Query, cfg Config, st *iosim.Stats) *ssb.Result {
	res, _ := db.RunCtx(context.Background(), q, cfg, st)
	return res
}

// RunCtx is Run with cancellation: the block loops of every pipeline check
// ctx between blocks, so an abandoned query stops acquiring segments within
// one 64K-row block of the cancellation and releases everything it pinned
// (blocks are only ever pinned for the duration of one block operation).
// When ctx is canceled the partial result is discarded and ctx.Err() is
// returned; st may have recorded a prefix of the query's I/O.
//
// RunCtx first resolves the query's snapshot: one consistent (sealed store,
// delta view, deletion vectors, epoch) frontier. The query is compiled
// once against it (plan.go); the chosen engine scans the sealed store into
// the query's aggregator, the live delta batches follow through the shared
// block routine into the same aggregator (morsel.go), and one render turns
// the cells into rows — so inserts accepted after the snapshot are
// invisible to this query and inserts accepted before are always included,
// for every engine. A GROUP BY whose catalog group space overflows int64
// (groupSpace) is an error, returned before anything is read.
func (db *DB) RunCtx(ctx context.Context, q *ssb.Query, cfg Config, st *iosim.Stats) (*ssb.Result, error) {
	// The trace rides in the context so no signature above exec changes;
	// it is extracted exactly once per query. tr == nil is the untraced
	// fast path: every recording site below tests one pointer.
	tr := obs.FromContext(ctx)
	if tr != nil {
		t0 := time.Now()
		tr.Query = q.ID
		tr.SQL = q.SQL()
		tr.Config = cfg.Code()
		defer func() { tr.WallNs = time.Since(t0).Nanoseconds() }()
		if st == nil {
			// Stages are cut out of the query's Stats, so a traced run
			// accounts even when its caller does not.
			st = new(iosim.Stats)
		}
	}
	sdb, view, del, epoch := db.snapshotForRead()
	if tr != nil {
		// The epoch of the snapshot actually scanned, not of some instant
		// before it: an insert may land between any two reads of the DB.
		tr.Epoch = epoch
	}
	return sdb.execute(ctx, q, cfg, st, view, del, tr)
}

// execute runs q over this (immutable) sealed DB plus the snapshot's delta
// view, masking the snapshot's deletion vectors (nil = none) so every
// engine excludes tombstoned rows identically.
func (db *DB) execute(ctx context.Context, q *ssb.Query, cfg Config, st *iosim.Stats, view *delta.View, del tombstones, tr *obs.Trace) (*ssb.Result, error) {
	if _, err := db.groupSpace(q); err != nil {
		return nil, err
	}
	hasDelta := view != nil && view.Len() > 0
	var agg *aggregator
	if cfg.LateMat {
		rec := newStageRec(tr, st)
		plan := db.compile(q, cfg, st)
		fused := cfg.FusedActive()
		rec.rec("plan", "", st, 0, 0, 0)
		// The query's worker: scratch for the block routine plus the
		// aggregator every stage below accumulates into.
		ws := db.getFusedWorker(plan, tr != nil)
		defer db.putFusedWorker(ws)
		agg = &ws.agg
		if fused {
			db.runFused(ctx, plan, ws, st, del.sealed, tr)
		} else {
			db.runLateMat(ctx, plan, agg, st, del.sealed, rec)
		}
		if hasDelta {
			db.scanDelta(ctx, plan, view, del.ws, ws, tr)
		}
	} else {
		// Early materialization plans row-store style inside its own engine
		// (and charges that), so it compiles a plan only when there are
		// delta morsels to run — uncharged, like the rest of the delta pass
		// — and takes their partial in through merge.
		agg = db.runEarlyMat(ctx, q, cfg, st, del.sealed, tr)
		if hasDelta && ctx.Err() == nil {
			plan := db.compile(q, cfg, nil)
			ws := db.getFusedWorker(plan, tr != nil)
			defer db.putFusedWorker(ws)
			db.scanDelta(ctx, plan, view, del.ws, ws, tr)
			agg.merge(&ws.agg)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return agg.render(q.ID), nil
}

// runLateMat is the paper's late-materialized pipeline, single-threaded as
// C-Store was: predicates produce position lists over the fact table;
// values are fetched only at qualifying positions (paper Section 5.2), and
// joins are executed as predicates on fact foreign-key columns (Section
// 5.4).
func (db *DB) runLateMat(ctx context.Context, plan *Plan, agg *aggregator, st *iosim.Stats, del *bitmap.Bitmap, rec *stageRec) {
	if rec != nil {
		rec.tr.Engine, rec.tr.Workers = "per-probe", 1
	}
	cfg := plan.cfg

	// Phase 2: apply each fact-side predicate, pipelining candidates.
	var pos *vector.Positions
	for _, p := range plan.probes {
		if ctx.Err() != nil {
			return
		}
		var rowsIn int64
		if rec != nil {
			rowsIn = int64(db.numRows)
			if pos != nil {
				rowsIn = int64(pos.Len())
			}
		}
		pos = p.apply(ctx, db, pos, cfg, st)
		if rec != nil {
			rec.rec("probe", probeDetail(p), st, rowsIn, int64(pos.Len()), 0)
		}
		if pos.Len() == 0 {
			break
		}
	}
	if pos == nil {
		pos = vector.NewRangePositions(0, int32(db.numRows))
	}
	if del != nil && pos.Len() > 0 {
		// Mask tombstoned rows before any value is fetched at the final
		// positions: deletes behave as one more conjunct on every plan.
		before := int64(pos.Len())
		bm := pos.ToBitmap(db.numRows)
		if bm == pos.Bits {
			bm = bm.Clone() // ToBitmap may return the probe's own bitmap
		}
		bm.AndNot(del)
		pos = vector.NewBitmapPositions(bm)
		if rec != nil {
			after := int64(pos.Len())
			rec.rec("tombstone-mask", "", st, before, after, before-after)
		}
	}
	if pos.Len() == 0 || ctx.Err() != nil {
		return
	}

	// Phase 3: extract group-by attributes and aggregate inputs at the
	// final position list only.
	plan.loadExtractors(db, st)
	db.aggregate(ctx, plan, pos, agg, st)
	if rec != nil {
		rec.rec("aggregate", "", st, int64(pos.Len()), agg.numGroups(), 0)
	}
}

// factProbe is one predicate to apply against a fact column: either a
// direct value predicate (between-rewritten joins, measure filters) or a
// membership probe. Membership is represented as a hash set on the
// per-probe path (the paper's simulated hash join) and as a dense bitmap
// over the dimension key space on the fused path, where dimension keys are
// reassigned positions and a probe is a branch-free bit test.
type factProbe struct {
	col    *colstore.Column
	pred   compress.Pred
	isPred bool
	set    map[int32]struct{}
	// dense holds membership bits anchored at setMin: bit (k-setMin) is
	// set iff key k qualifies. Built instead of set under Config.Fused.
	dense *bitmap.Bitmap
	// setMin/setMax bound the membership keys; blocks whose value range
	// cannot intersect [setMin, setMax] are skipped without I/O.
	setMin, setMax int32
	// sortedFirst marks probes that exploit the fact sort order and
	// should run before everything else.
	sortedFirst bool
	// dimPos holds the dimension positions join phase 1 admitted (nil for
	// fact measure filters): the rows whose foreign key passes the probe.
	dimPos *vector.Positions
}

// matches reports membership of v in the probe's key set (dense or hash).
func (p *factProbe) matches(v int32) bool {
	if p.dense != nil {
		return v >= p.setMin && v <= p.setMax && p.dense.Get(int(v-p.setMin))
	}
	_, ok := p.set[v]
	return ok
}

// keyCount returns the number of keys in the membership set.
func (p *factProbe) keyCount() int {
	if p.dense != nil {
		return p.dense.Count()
	}
	return len(p.set)
}

// mayMatch reports whether any value in [mn, mx] could survive the probe,
// from block statistics alone.
func (p *factProbe) mayMatch(mn, mx int32) bool {
	if p.isPred {
		return p.pred.MayMatch(mn, mx)
	}
	return mx >= p.setMin && mn <= p.setMax
}

// coversBlock reports whether every value in [mn, mx] survives the probe,
// so the block needs no decode at all.
func (p *factProbe) coversBlock(mn, mx int32) bool {
	if p.isPred {
		lo, hi, ok := p.pred.Bounds()
		return ok && lo <= mn && mx <= hi
	}
	// Membership: only provable from statistics for single-value blocks.
	return mn == mx && p.matches(mn)
}

// planProbes runs join phase 1 (dimension predicate evaluation) and
// compiles the query's restrictions into an ordered probe list.
func (db *DB) planProbes(q *ssb.Query, cfg Config, st *iosim.Stats) []*factProbe {
	var sorted, preds, hashes []*factProbe

	dimOrder, byDim := dimFilterGroups(q)
	for _, dim := range dimOrder {
		probe := db.dimProbe(dim, byDim[dim], cfg, st)
		switch {
		case probe.isPred && probe.sortedFirst:
			sorted = append(sorted, probe)
		case probe.isPred:
			preds = append(preds, probe)
		default:
			hashes = append(hashes, probe)
		}
	}

	// Fact measure filters (flight 1).
	var facts []*factProbe
	for _, f := range q.FactFilters {
		facts = append(facts, &factProbe{
			col:    db.Fact.MustColumn(f.Col),
			pred:   f.Pred,
			isPred: true,
		})
	}

	out := make([]*factProbe, 0, len(sorted)+len(facts)+len(preds)+len(hashes))
	out = append(out, sorted...)
	out = append(out, facts...)
	out = append(out, preds...)
	out = append(out, hashes...)
	return out
}

// dimFilterGroups groups q's dimension filters per dimension, in order of
// first appearance: all predicates on one dimension evaluate together and
// summarize as a single fact probe or pass set (the invisible-join
// advantage Figure 8 discusses for queries with two predicates on the same
// dimension).
func dimFilterGroups(q *ssb.Query) (order []ssb.Dim, byDim map[ssb.Dim][]ssb.DimFilter) {
	byDim = map[ssb.Dim][]ssb.DimFilter{}
	for _, f := range q.DimFilters {
		if _, ok := byDim[f.Dim]; !ok {
			order = append(order, f.Dim)
		}
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	return order, byDim
}

// dimPositions evaluates one dimension's filters against the dimension
// table (join phase 1) and returns the qualifying dimension positions. With
// kernels on, predicates run natively on the compressed dimension columns
// (run-length blocks filter without decoding); with kernels off every
// filtered column is decoded in full and tested value by value, as a row
// store would.
func (db *DB) dimPositions(dim ssb.Dim, filters []ssb.DimFilter, kernels bool, st *iosim.Stats) *vector.Positions {
	dimTab := db.Dims[dim]
	var pos *vector.Positions
	for _, f := range filters {
		col := dimTab.MustColumn(f.Col)
		pred := dimFilterPred(col, f)
		switch {
		case !kernels:
			vals := col.DecodeAll(nil, st)
			var keep []int32
			if pos == nil {
				for i, v := range vals {
					if pred.Match(v) {
						keep = append(keep, int32(i))
					}
				}
			} else {
				// pos is the explicit list the previous filter kept.
				for _, p := range pos.List {
					if pred.Match(vals[p]) {
						keep = append(keep, p)
					}
				}
			}
			pos = vector.NewExplicitPositions(keep)
		case pos == nil:
			pos = col.Filter(pred, st)
		default:
			pos = col.FilterAt(pred, pos, st)
		}
	}
	return pos
}

// dimKeys turns qualifying dimension positions into the values the fact
// foreign-key column holds for them: customer, supplier and part keys were
// reassigned to positions, so those are the positions themselves; dates
// resolve through the datekey column — gathered at the positions with
// kernels on, decoded in full with kernels off.
func (db *DB) dimKeys(dim ssb.Dim, pos *vector.Positions, kernels bool, st *iosim.Stats) []int32 {
	if dim != ssb.DimDate {
		return pos.ToSlice(nil)
	}
	keyCol := db.Dims[dim].MustColumn("datekey")
	if kernels {
		return keyCol.Gather(pos, nil, st)
	}
	all := keyCol.DecodeAll(nil, st)
	keys := pos.ToSlice(nil)
	for i, p := range keys {
		keys[i] = all[p]
	}
	return keys
}

// dimProbe runs phase 1 of the join for one dimension: evaluate its
// predicates against the dimension table, then summarize the matching keys
// as a fact-column probe that keeps the matching positions (compile lays out
// fused group keys over them).
func (db *DB) dimProbe(dim ssb.Dim, filters []ssb.DimFilter, cfg Config, st *iosim.Stats) *factProbe {
	dimPos := db.dimPositions(dim, filters, true, st)
	probe := db.keyProbe(dim, dimPos, cfg, st)
	probe.dimPos = dimPos
	return probe
}

// keyProbe summarizes the qualifying dimension positions as a probe on the
// fact foreign-key column. With the invisible join enabled and a contiguous
// match, the probe is a between predicate (Section 5.4.2); otherwise it is
// a membership test. Either way it is exact: a fact row passes iff its
// foreign key names one of the positions (Insert admits no key the
// dimension lacks).
func (db *DB) keyProbe(dim ssb.Dim, dimPos *vector.Positions, cfg Config, st *iosim.Stats) *factProbe {
	dimTab := db.Dims[dim]
	fkCol := db.Fact.MustColumn(dim.FactFK())

	if cfg.InvisibleJoin {
		if lo, hi, ok := contiguousRange(dimPos); ok {
			if dim == ssb.DimDate {
				// Translate contiguous date positions to a
				// datekey value range: the date key is not a
				// dense position, but it is chronologically
				// sorted, so contiguous positions map to a
				// contiguous key interval.
				if lo >= hi {
					return &factProbe{col: fkCol, pred: compress.Between(1, 0), isPred: true, sortedFirst: true}
				}
				keyCol := dimTab.MustColumn("datekey")
				// Counted point lookups: the two boundary acquires must
				// show up in BlocksFetched for pool reconciliation, but
				// their byte cost is (and was) not charged.
				keyLo := keyCol.GetCounted(lo, st)
				keyHi := keyCol.GetCounted(hi-1, st)
				return &factProbe{col: fkCol, pred: compress.Between(keyLo, keyHi), isPred: true, sortedFirst: true}
			}
			// Customer/supplier/part keys were reassigned to
			// positions, so the between predicate is directly on
			// fact FK values.
			return &factProbe{col: fkCol, pred: compress.Between(lo, hi-1), isPred: true}
		}
	}

	// Membership fallback (and the entire i-configuration): build the key
	// set — a hash set on the per-probe path, a dense bitmap over
	// [setMin, setMax] on the fused path.
	keys := db.dimKeys(dim, dimPos, true, st)
	probe := &factProbe{col: fkCol, setMin: 0, setMax: -1}
	if len(keys) == 0 {
		// Empty key range [0, -1] matches nothing.
		probe.set = map[int32]struct{}{}
		return probe
	}
	mn, mx := keys[0], keys[0]
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	probe.setMin, probe.setMax = mn, mx
	if cfg.FusedActive() {
		probe.dense = bitmap.New(int(mx-mn) + 1)
		for _, k := range keys {
			probe.dense.Set(int(k - mn))
		}
		return probe
	}
	probe.set = keySet(keys)
	return probe
}

// keySet is the hash-set form of a key list: the simulated hash join's
// build side.
func keySet(keys []int32) map[int32]struct{} {
	set := make(map[int32]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return set
}

// dimFilterPred translates a logical dimension filter into a code-space
// predicate for the dimension column.
func dimFilterPred(col *colstore.Column, f ssb.DimFilter) compress.Pred {
	if f.IsInt {
		return f.IntPred()
	}
	return col.Dict.EncodePred(f.Op, f.StrA, f.StrB, f.StrSet)
}

// apply runs the probe against the fact table, restricted to candidate
// positions when cand is non-nil.
func (p *factProbe) apply(ctx context.Context, db *DB, cand *vector.Positions, cfg Config, st *iosim.Stats) *vector.Positions {
	if p.isPred {
		if cfg.BlockIter {
			if cand == nil {
				return p.col.FilterCtx(ctx, p.pred, st)
			}
			return p.col.FilterAtCtx(ctx, p.pred, cand, st)
		}
		return db.tupleFilter(ctx, p.col, p.pred, cand, cfg, st)
	}
	return db.probeSet(ctx, p, cand, cfg, st)
}

// tupleFilter is the "getNext" selection path used when block iteration is
// disabled: one iterator interface call per value (paper Section 6.3.2,
// "we wrote alternative versions that use getNext"). The sorted-column fast
// path is retained — it is a property of the storage sort order, not of the
// iteration interface.
func (db *DB) tupleFilter(ctx context.Context, col *colstore.Column, pred compress.Pred, cand *vector.Positions, cfg Config, st *iosim.Stats) *vector.Positions {
	if col.Sorted == colstore.PrimarySort && cand == nil {
		if _, _, ok := pred.Bounds(); ok {
			return col.Filter(pred, st)
		}
	}
	n := col.NumRows()
	out := bitmap.New(n)
	if cand == nil {
		base := 0
		var scratch []int32
		for bi := 0; bi < col.NumBlocks(); bi++ {
			if ctx.Err() != nil {
				break
			}
			blk, release := col.AcquireBlock(bi)
			st.BlockFetched()
			st.Read(blk.CompressedBytes())
			if !cfg.NoKernels && blk.Encoding() == compress.RLE {
				// Run-length blocks filter natively in O(runs): paying a
				// getNext call per value on top of that would simulate
				// work the storage never does. The ablation's per-value
				// iterator cost is kept for every other encoding.
				st.KernelFold()
				blk.Filter(pred, base, out)
				base += blk.Len()
				release()
				continue
			}
			scratch = blk.AppendTo(scratch[:0])
			st.Gathered()
			st.Decoded(int64(len(scratch)) * 4)
			release()
			it := vector.NewSliceIter(scratch)
			i := base
			for {
				v, ok := it.Next()
				if !ok {
					break
				}
				if pred.Match(v) {
					out.Set(i)
				}
				i++
			}
			base += len(scratch)
		}
		return vector.NewBitmapPositions(out)
	}
	posList := cand.ToSlice(nil)
	vals := col.Gather(cand, nil, st)
	it := vector.NewSliceIter(vals)
	for _, pos := range posList {
		v, _ := it.Next()
		if pred.Match(v) {
			out.Set(int(pos))
		}
	}
	return vector.NewBitmapPositions(out)
}

// probeSet applies a membership probe on a fact FK column — the simulated
// hash join of Section 5.4.1 phase 2. Blocks whose min/max value range
// cannot intersect the probe's key range are skipped before any I/O is
// charged or values decoded, on both the full-scan and the pipelined
// candidate path.
func (db *DB) probeSet(ctx context.Context, p *factProbe, cand *vector.Positions, cfg Config, st *iosim.Stats) *vector.Positions {
	col := p.col
	n := col.NumRows()
	out := bitmap.New(n)
	if cand == nil {
		base := 0
		var scratch []int32
		for bi := 0; bi < col.NumBlocks(); bi++ {
			if ctx.Err() != nil {
				break
			}
			// Zone-map pruning before the block is acquired: a pruned
			// segment is never read from disk.
			if mn, mx := col.BlockMinMax(bi); !p.mayMatch(mn, mx) {
				st.BlockPruned()
				base += col.BlockLen(bi)
				continue
			}
			blk, release := col.AcquireBlock(bi)
			st.BlockFetched()
			st.Read(blk.CompressedBytes())
			if cfg.KernelsActive() {
				// Membership directly on the compressed block: one test
				// per run / distinct value where the encoding allows,
				// no decode.
				st.KernelFold()
				blkLen := blk.Len()
				blk.FilterFunc(p.matches, base, out)
				release()
				base += blkLen
				continue
			}
			scratch = blk.AppendTo(scratch[:0])
			st.Gathered()
			st.Decoded(int64(len(scratch)) * 4)
			release()
			if cfg.BlockIter {
				for i, v := range scratch {
					if p.matches(v) {
						out.Set(base + i)
					}
				}
			} else {
				it := vector.NewSliceIter(scratch)
				i := base
				for {
					v, ok := it.Next()
					if !ok {
						break
					}
					if p.matches(v) {
						out.Set(i)
					}
					i++
				}
			}
			base += len(scratch)
		}
		return vector.NewBitmapPositions(out)
	}
	// Pipelined path: group candidates by block (blocks hold BlockSize
	// values each) so pruned blocks are never gathered from.
	posList := cand.ToSlice(nil)
	var idx, vals []int32
	for i := 0; i < len(posList); {
		if ctx.Err() != nil {
			break
		}
		bi := int(posList[i]) / colstore.BlockSize
		base := int32(bi) * colstore.BlockSize
		idx = idx[:0]
		j := i
		for j < len(posList) && int(posList[j])/colstore.BlockSize == bi {
			idx = append(idx, posList[j]-base)
			j++
		}
		i = j
		if mn, mx := col.BlockMinMax(bi); !p.mayMatch(mn, mx) {
			st.BlockPruned()
			continue
		}
		vals = col.GatherBlock(bi, idx, vals[:0], st)
		if cfg.BlockIter {
			for k, v := range vals {
				if p.matches(v) {
					out.Set(int(base + idx[k]))
				}
			}
		} else {
			it := vector.NewSliceIter(vals)
			for _, bl := range idx {
				v, _ := it.Next()
				if p.matches(v) {
					out.Set(int(base + bl))
				}
			}
		}
	}
	return vector.NewBitmapPositions(out)
}

// contiguousRange reports whether the positions form one contiguous run
// [lo, hi).
func contiguousRange(p *vector.Positions) (lo, hi int32, ok bool) {
	switch p.Kind {
	case vector.PosRange:
		return p.Start, p.End, true
	case vector.PosExplicit:
		if len(p.List) == 0 {
			return 0, 0, true
		}
		first, last := p.List[0], p.List[len(p.List)-1]
		if int(last-first)+1 == len(p.List) {
			return first, last + 1, true
		}
		return 0, 0, false
	default:
		n := p.Bits.Count()
		if n == 0 {
			return 0, 0, true
		}
		first := p.Bits.NextSet(0)
		last := first + n - 1
		// Contiguous iff the last bit of the presumed run is set and no
		// bit is set after it: n set bits then occupy exactly
		// [first, last].
		if last < p.Bits.Len() && p.Bits.Get(last) &&
			(last+1 >= p.Bits.Len() || p.Bits.NextSet(last+1) == -1) {
			return int32(first), int32(last + 1), true
		}
		return 0, 0, false
	}
}
