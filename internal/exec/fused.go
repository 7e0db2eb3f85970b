package exec

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/vector"
)

// This file implements the fused, block-at-a-time, morsel-parallel pipeline
// (Config.Fused). The per-probe pipeline in run.go materializes a full
// fact-table bitmap per probe and funnels every membership probe through a
// map lookup per fact row; the fused pipeline instead scans each 64K fact
// block exactly once against all predicates and probes:
//
//  1. Probes run in plan order with per-block min/max
//     short-circuiting: a block a probe cannot match is abandoned before
//     any I/O is charged, and a block a probe fully covers is passed
//     through without decoding.
//  2. While the selection is still the whole block, probes execute
//     directly on the compressed representation — IntBlock.Filter for
//     value predicates and IntBlock.FilterSet for dense-bitmap membership
//     (RLE tests one bit per run, bit-packed blocks 64 codes per result
//     word) — into a block-local selection bitmap, word-ANDed into the
//     running selection while it stays dense.
//  3. Each later probe runs the same way and is ANDed into the selection
//     while that costs no more bytes and less time than gathering at the
//     survivors (lateWholeBlock); otherwise it gathers and tests at them,
//     and the selection becomes an explicit index list that every further
//     probe gathers at.
//  4. Group-by codes (direct array extraction; date keys resolve through a
//     dense key->position array rather than a map) and aggregate inputs
//     are gathered for survivors only and accumulated into the worker's
//     aggregator inside the same pass.
//
// Morsel parallelism: workers own disjoint blocks (bi % workers == w) with
// private scratch buffers, a private aggregator, and I/O stats, so the scan
// needs no synchronization. Partials combine with aggregator.merge, so
// results and I/O accounting are bit-identical for every worker count.
//
// The block routine (fusedBlock) is store-agnostic: it runs one morsel —
// a block of whichever columns the morsel binds to the plan's slots — so
// the delta scan (morsel.go) pushes write-store batches through the same
// probe -> mask -> extract -> accumulate code into the same aggregator.

// fusedWorkerDenseLimit caps the composite group space for which every
// worker gets a private dense aggregation array. Above it the fused scan
// degrades to one worker rather than multiplying a huge array per worker.
const fusedWorkerDenseLimit = 1 << 20

// The late-probe rule's costs, in tenths of a nanosecond per value, each
// beside the BenchmarkFilterKernels rows it comes from (bitpack-wire unless
// named, 65 536 values, a 2-core AVX2 host). They are code, not run-time
// measurements: no CPU-feature flag and no clock reaches the rule, so which
// probes run whole-block, and with them every iosim count, is the same on
// every host, worker count and storage backend.
const (
	// gatherCost (c_gather) is Gather at the survivors
	// (Gather/bitpack-wire/w{11,15,18}: 2.4–4.5 ns per survivor). The whole
	// arm, AppendPositions and the interval compaction included, reads 5–10
	// (GatherArm/bitpack-wire/w{11,15,18}/d{64,16,4}). A c_gather of 7
	// costs the same CPU as 2.5, because late-probe densities cluster at
	// ~0.2, ~0.04 and below 0.01, and the lower one moves the fewest
	// probes off the gather.
	gatherCost = 25
	// intervalCost is an interval Filter at a width the AVX2 loop serves
	// (Filter/bitpack-wire/w{4..25}/sel*: 0.15–0.23).
	intervalCost, intervalWidth = 2, 25
	// setCost and wideSetCost are FilterSet under the table rule, its table
	// build included, up to setWidth and past it
	// (FilterSet/bitpack-wire/w{4,11,15}: 0.76–1.1, w18: 1.3–1.5).
	setCost, wideSetCost, setWidth = 10, 20, 15
	// perValueCost is every other test, priced as the per-value set test
	// past the table rule (FilterSet/bitpack-wire/w{21,25}: 4.0–5.2). It
	// overprices an interval on a plain block (Filter/plain: 0.8–1.3) or
	// past intervalWidth (Filter/bitpack-wire/w32: 0.7–0.9), which keeps
	// those probes on the gather.
	perValueCost = 40
)

// lateWholeBlock decides how probe p runs on block bi of col while the
// selection sel is still a bitmap narrowed by an earlier probe: true runs
// the probe over the whole compressed block and ANDs the result into sel,
// as the invisible join does (Section 5.4); false gathers p's column at
// sel's survivors. It consults the zone map (mn, mx and the encoding), never
// the block.
//
// A run-length block always runs whole: its kernel is O(runs), so c_kernel
// is 0. Any other block runs whole only when the kernels are on and two
// things hold. First, the survivors' positional read is already charged the
// whole block (SelChargesWholeBlock), so the bytes read are the same either
// way. Second, survivors × c_gather ≥ n × c_kernel, with c_kernel priced by
// encoding, width and test. With the kernels ablated (Config.NoKernels)
// c_kernel is infinite for every block that is not run-length.
func (p *factProbe) lateWholeBlock(col *colstore.Column, bi int, mn, mx int32, sel *bitmap.Bitmap, kernels bool) bool {
	enc := col.BlockEncoding(bi)
	if enc == compress.RLE {
		return true
	}
	if !kernels {
		return false
	}
	n := col.BlockLen(bi)
	cost := int64(perValueCost)
	if enc == compress.BitPack {
		w := compress.PackWidth(mn, mx)
		switch {
		case p.isPred:
			if _, _, ok := p.pred.Bounds(); ok && w <= intervalWidth {
				cost = intervalCost
			}
		case p.dense != nil && compress.SetTableFits(w, n):
			cost = setCost
			if w > setWidth {
				cost = wideSetCost
			}
		}
	}
	return int64(sel.Count())*gatherCost >= int64(n)*cost && col.SelChargesWholeBlock(bi, sel)
}

// fusedWorkersFor returns the worker count the fused scan actually uses:
// cfgWorkers clamped to at least one, degraded to one when the composite
// group space makes per-worker dense arrays too costly, and capped at the
// number of fact blocks.
func fusedWorkersFor(cfgWorkers int, space int64, nb int) int {
	workers := cfgWorkers
	if workers < 1 {
		workers = 1
	}
	if space > fusedWorkerDenseLimit {
		workers = 1
	}
	if nb > 0 && nb < workers {
		workers = nb
	}
	return workers
}

// fusedWorker is one morsel worker's private state: scratch buffers reused
// across blocks, its partial aggregate, and I/O accounting.
type fusedWorker struct {
	st  iosim.Stats
	sel *bitmap.Bitmap // block-local selection vector
	tmp *bitmap.Bitmap // per-probe filter output, ANDed into sel

	idx   []int32           // survivor block-local indexes
	vals  []int32           // probe gather scratch
	mvals [][]int32         // aggregate input gather scratch, one per distinct column
	fkv   []int32           // FK gather scratch
	gidx  []int64           // composite group index per survivor
	accs  []compress.AggAcc // per-column kernel accumulators, one per distinct column

	agg aggregator
	// stages holds per-stage trace counters when the run is traced (nil
	// otherwise): one per probe plus the combined mask/extract/aggregate
	// tail. Merged across workers by addition, so traced totals are
	// worker-count invariant like everything else here. Untraced runs never
	// touch the array — fusedBlock tests ws.stages once per recording site.
	stages []obs.StageCounters
}

// getFusedWorker takes a worker from the DB pool (or makes one) and sizes
// its scratch and aggregator for the plan. Pooled workers were scrubbed on
// release, so reused aggregation arrays are already all-zero.
func (db *DB) getFusedWorker(plan *Plan, traced bool) *fusedWorker {
	ws, _ := db.fusedPool.Get().(*fusedWorker)
	if ws == nil {
		ws = &fusedWorker{
			sel: bitmap.New(colstore.BlockSize),
			tmp: bitmap.New(colstore.BlockSize),
		}
	}
	ws.st = iosim.Stats{}
	if traced {
		nStages := len(plan.probes) + 1
		if cap(ws.stages) < nStages {
			ws.stages = make([]obs.StageCounters, nStages)
		}
		ws.stages = ws.stages[:nStages]
		clear(ws.stages)
	} else {
		ws.stages = nil
	}
	for len(ws.mvals) < len(plan.inputs) {
		ws.mvals = append(ws.mvals, nil)
	}
	if cap(ws.accs) < len(plan.inputs) {
		ws.accs = make([]compress.AggAcc, len(plan.inputs))
	}
	ws.accs = ws.accs[:len(plan.inputs)]
	ws.agg.reset(plan.aggShape)
	return ws
}

// putFusedWorker scrubs the worker's aggregator and returns it to the pool.
func (db *DB) putFusedWorker(ws *fusedWorker) {
	ws.agg.scrub()
	db.fusedPool.Put(ws)
}

// runFused executes the late-materialized plan over the sealed store as one
// fused scan, leaving the merged aggregate in w0 (the query's worker, which
// also scans morsel share 0).
func (db *DB) runFused(ctx context.Context, plan *Plan, w0 *fusedWorker, st *iosim.Stats, del *bitmap.Bitmap, tr *obs.Trace) {
	nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
	workers := fusedWorkersFor(plan.cfg.Workers, plan.total, nb)
	if tr != nil {
		tr.Engine = "fused"
		tr.Workers = workers
	}
	if nb == 0 {
		return
	}
	cols := plan.bind(db.Fact.MustColumn)

	states := make([]*fusedWorker, workers)
	states[0] = w0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if w > 0 {
			states[w] = db.getFusedWorker(plan, tr != nil)
		}
		wg.Add(1)
		go func(w int, ws *fusedWorker) {
			defer wg.Done()
			for bi := w; bi < nb; bi += workers {
				// Cancellation is checked between blocks: a block never
				// holds a pin across the check, so an abandoned query
				// leaves zero pinned frames behind.
				if ctx.Err() != nil {
					return
				}
				m := db.sealedMorsel(cols, del, bi)
				fusedBlock(&m, plan, ws)
			}
		}(w, states[w])
	}
	wg.Wait()

	// Merge into w0: per-worker partials combine by the aggregates'
	// commutative merge and stage counters by addition (per-probe wall is
	// summed work time across workers, which can exceed the query's elapsed
	// wall clock), so worker count never shows through in results, stats or
	// traces. An abandoned scan recycles its workers the same way — the
	// scrub only touches cells their seen bitmaps mark, partial or not —
	// and RunCtx surfaces ctx.Err instead of the partial aggregate.
	st.Add(w0.st)
	for _, ws := range states[1:] {
		st.Add(ws.st)
		w0.agg.merge(&ws.agg)
		for si := range ws.stages {
			w0.stages[si].Add(ws.stages[si])
		}
		db.putFusedWorker(ws)
	}
	if tr != nil && ctx.Err() == nil {
		for pi, p := range plan.probes {
			tr.AddStage("probe", probeDetail(p), w0.stages[pi])
		}
		tr.AddStage("extract+aggregate", "", w0.stages[len(plan.probes)])
	}
}

// fusedBlock runs the whole fused pipeline — probes, deletion mask,
// extraction, aggregation — over one morsel, accumulating into ws.agg.
func fusedBlock(m *morsel, plan *Plan, ws *fusedWorker) {
	bi, blkLen := m.bi, m.n
	if ws.sel.Len() != blkLen {
		// Selection scratch costs words, not BlockSize: a short morsel (a
		// delta batch, the tail block) resets, counts and ANDs only its own.
		ws.sel.Resize(blkLen)
		ws.tmp.Resize(blkLen)
	}

	// Selection state: starts as the whole block, narrows to a bitmap
	// while dense, then to an explicit index list.
	full, onBitmap := true, false
	ws.idx = ws.idx[:0]

	// curCount is only evaluated on the traced path (ws.stages != nil):
	// the bitmap popcount it costs never runs untraced.
	curCount := func() int64 {
		switch {
		case full:
			return int64(blkLen)
		case onBitmap:
			return int64(ws.sel.Count())
		default:
			return int64(len(ws.idx))
		}
	}

	//lint:ignore ctxloop per-block probe loop over one already-acquired block bi, bounded by the plan's probe count; the morsel loop driving it checks ctx once per block
	for pi, p := range plan.probes {
		// Zone-map consultation only: the block is not acquired (for
		// segment-backed columns, not even read from disk) unless the
		// probe actually has to examine values.
		col := m.cols[pi]
		mn, mx := col.BlockMinMax(bi)
		if !p.mayMatch(mn, mx) {
			ws.st.BlockPruned()
			if ws.stages != nil {
				sc := &ws.stages[pi]
				sc.RowsIn += curCount()
				sc.BlocksPruned++
			}
			return // min/max short-circuit: block has no survivors
		}
		if p.coversBlock(mn, mx) {
			ws.st.BlockCovered()
			if ws.stages != nil {
				n := curCount()
				sc := &ws.stages[pi]
				sc.RowsIn += n
				sc.RowsOut += n
				sc.BlocksCovered++
			}
			continue // every value survives: no decode, no I/O
		}
		var probeIn int64
		var stBefore iosim.Stats
		var tProbe time.Time
		if ws.stages != nil {
			probeIn = curCount()
			stBefore = ws.st
			tProbe = time.Now()
		}
		switch {
		case full:
			// First narrowing probe: the whole block must be examined,
			// so run directly on the compressed representation.
			ws.sel.Reset()
			applyBlockProbe(p, col, bi, ws.sel, ws)
			full, onBitmap = false, true
		case onBitmap && p.lateWholeBlock(col, bi, mn, mx, ws.sel, plan.kernels):
			// Word-level fused selection: filter the compressed block
			// and AND into the running selection vector.
			ws.tmp.Reset()
			applyBlockProbe(p, col, bi, ws.tmp, ws)
			ws.sel.And(ws.tmp)
		default:
			if onBitmap {
				ws.idx = ws.sel.AppendPositions(ws.idx[:0])
				onBitmap = false
			}
			ws.vals = col.GatherBlock(bi, ws.idx, ws.vals[:0], &ws.st)
			// Compact in place: every slot is stored and k advances by the
			// test's result, so a coin-flip probe mispredicts nothing.
			idx, k := ws.idx, 0
			switch {
			case p.isPred:
				if lo, hi, ok := p.pred.Bounds(); !ok {
					for j, v := range ws.vals {
						idx[k] = idx[j]
						k += b2i(p.pred.Match(v))
					}
				} else if lo <= hi {
					// An interval is one unsigned compare per survivor.
					ulo, span := uint32(lo), uint32(hi)-uint32(lo)
					for j, v := range ws.vals {
						idx[k] = idx[j]
						k += b2i(uint32(v)-ulo <= span)
					}
				}
			case p.dense != nil:
				// Dense-bitmap join probe: a shifted word load per survivor,
				// no hashing.
				dmin, n, words := int64(p.setMin), uint64(p.dense.Len()), p.dense.Words()
				for j, v := range ws.vals {
					idx[k] = idx[j]
					if d := uint64(int64(v) - dmin); d < n {
						k += int(words[d>>6] >> (d & 63) & 1)
					}
				}
			default:
				for j, v := range ws.vals {
					idx[k] = idx[j]
					k += b2i(p.matches(v))
				}
			}
			ws.idx = ws.idx[:k]
		}
		if ws.stages != nil {
			sc := &ws.stages[pi]
			sc.Add(countersBetween(stBefore, ws.st))
			sc.RowsIn += probeIn
			sc.RowsOut += curCount()
			sc.WallNs += time.Since(tProbe).Nanoseconds()
		}
		if onBitmap {
			if !ws.sel.Any() {
				return
			}
		} else if !full && len(ws.idx) == 0 {
			return
		}
	}

	// Materialize the survivor set for extraction and aggregation. With
	// kernels active and the selection still block- or bitmap-shaped, stay
	// on the bitmap: deletion masking is a word-wise AND-NOT and every
	// downstream extraction runs AggSelect/GatherSelect directly on the
	// compressed blocks — no position list, no per-position random access.
	var nSel int
	var tomb int64
	if ws.stages != nil {
		selIn := curCount()
		stBefore := ws.st
		t0 := time.Now()
		sc := &ws.stages[len(plan.probes)]
		// One deferred record covers every exit of the mask/extract/
		// aggregate tail; the closure is only set up on traced runs.
		defer func() {
			sc.Add(countersBetween(stBefore, ws.st))
			sc.RowsIn += selIn
			sc.RowsOut += int64(nSel)
			sc.Tombstoned += tomb
			sc.WallNs += time.Since(t0).Nanoseconds()
		}()
	}
	var gather func(col *colstore.Column, dst []int32) []int32
	// A deletion vector masks word-wise when the morsel's window into it is
	// word-aligned — always, for sealed blocks (BlockSize is a multiple of
	// 64). Delta morsels sit at arbitrary offsets of the write-store vector
	// and take the index-list arm instead.
	if plan.kernels && (full || onBitmap) && (m.del == nil || m.delBase%64 == 0) {
		if full {
			ws.sel.Reset()
			ws.sel.SetRange(0, blkLen)
		}
		if m.del != nil {
			if ws.stages != nil {
				preDel := int64(ws.sel.Count())
				ws.sel.AndNotWordsFrom(m.del, m.delBase/64)
				tomb = preDel - int64(ws.sel.Count())
			} else {
				ws.sel.AndNotWordsFrom(m.del, m.delBase/64)
			}
		}
		nSel = ws.sel.Count()
		if nSel == 0 {
			return
		}
		if plan.foldsBlocks() {
			// Decode-free aggregation: fold each distinct input column
			// once per block on its compressed representation and widen
			// the per-block accumulators into the aggregate cells.
			//lint:ignore ctxloop per-block fold over one block bi, bounded by the plan's aggregate list; the morsel loop driving it checks ctx once per block
			for ci, col := range m.inputCols(plan) {
				acc := compress.NewAggAcc()
				col.AggSelectBlock(bi, ws.sel, &ws.st, &acc)
				ws.accs[ci] = acc
			}
			ws.agg.addFolded(ws.accs, int64(nSel))
			return
		}
		gather = func(col *colstore.Column, dst []int32) []int32 {
			return col.GatherSelectBlock(bi, ws.sel, dst, &ws.st)
		}
	} else {
		if full {
			ws.idx = vector.AppendSeq(ws.idx[:0], 0, int32(blkLen))
		} else if onBitmap {
			ws.idx = ws.sel.AppendPositions(ws.idx[:0])
		}
		// Deletion-vector mask: drop tombstoned survivors before any
		// aggregate input is gathered, so purged rows cost no value I/O —
		// same contract as a failed probe. Rows past the vector's length
		// postdate the last delete and are live.
		if m.del != nil {
			before := len(ws.idx)
			k := 0
			for _, i := range ws.idx {
				if g := m.delBase + int(i); g >= m.del.Len() || !m.del.Get(g) {
					ws.idx[k] = i
					k++
				}
			}
			ws.idx = ws.idx[:k]
			if ws.stages != nil {
				tomb = int64(before - k)
			}
		}
		nSel = len(ws.idx)
		if nSel == 0 {
			return
		}
		gather = func(col *colstore.Column, dst []int32) []int32 {
			return col.GatherBlock(bi, ws.idx, dst, &ws.st)
		}
	}

	// Aggregate inputs at survivors only: gather each distinct input
	// column once per block.
	mvals := ws.mvals[:len(plan.inputs)]
	for ci, col := range m.inputCols(plan) {
		mvals[ci] = gather(col, mvals[ci][:0])
	}

	if len(plan.exs) == 0 {
		ws.agg.addBlock(nil, mvals, nSel)
		return
	}

	// Group extraction: composite index accumulated per extractor, then
	// one aggregator update per survivor.
	ws.gidx = slices.Grow(ws.gidx[:0], nSel)[:nSel]
	clear(ws.gidx)
	fkCols := m.cols[len(plan.probes)+len(plan.inputs):]
	for gi, ex := range plan.exs {
		ws.fkv = gather(fkCols[gi], ws.fkv[:0])
		stride := plan.strides[gi]
		if ex.posDense == nil {
			for r, fk := range ws.fkv {
				ws.gidx[r] += int64(ex.attr[fk]) * stride
			}
		} else {
			// Date keys resolve through the dense key->position array.
			// Keys outside the dimension (possible only with unvalidated
			// -data files) degrade to position 0, matching the per-probe
			// path's map-miss behaviour instead of panicking.
			for r, fk := range ws.fkv {
				var pos int32
				if k := int64(fk) - int64(ex.keyMin); k >= 0 && k < int64(len(ex.posDense)) {
					if p := ex.posDense[k]; p >= 0 {
						pos = p
					}
				}
				ws.gidx[r] += int64(ex.attr[pos]) * stride
			}
		}
	}
	ws.agg.addBlock(ws.gidx, mvals, nSel)
}

// b2i is 1 for true, 0 for false: a flag set, not a branch, once compiled.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// applyBlockProbe evaluates one probe over a whole block directly on its
// compressed representation, charging a full block read. The block is
// acquired here — after the caller's zone-map checks — and released before
// returning, so a segment-backed block is pinned only while its values are
// being examined.
func applyBlockProbe(p *factProbe, col *colstore.Column, bi int, out *bitmap.Bitmap, ws *fusedWorker) {
	blk, release := col.AcquireBlock(bi)
	ws.st.BlockFetched()
	ws.st.Read(blk.CompressedBytes())
	ws.st.KernelFold()
	switch {
	case p.isPred:
		blk.Filter(p.pred, 0, out)
	case p.dense != nil:
		blk.FilterSet(p.dense, p.setMin, 0, out)
	default:
		// Hash-set probe: a plan compiled for a per-probe or row-oriented
		// engine, here for its delta morsels (planProbes builds dense sets
		// whenever the fused pipeline is active). Probe membership natively
		// — one test per run / distinct value where the encoding allows —
		// instead of decoding the whole block.
		blk.FilterFunc(p.matches, 0, out)
	}
	release()
}
