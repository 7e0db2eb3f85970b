package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/iosim"
	"repro/internal/obs"
)

// morsel is one unit of work for the block routine (fusedBlock): up to
// BlockSize rows, addressed as block bi of the columns bound to the plan's
// slots. Sealed fact blocks and write-store batches differ only in the
// binding, so one routine scans both.
type morsel struct {
	cols []*colstore.Column // per-slot binding, Plan.slots order
	bi   int                // block index within cols
	n    int                // rows in the block
	// del is the deletion vector covering the morsel (nil = no tombstone
	// can fall inside it) and delBase the index in del of the morsel's
	// first row; bits past del's length read as live.
	del     *bitmap.Bitmap
	delBase int
}

// inputCols returns the morsel's binding of the plan's aggregate input
// slots.
func (m *morsel) inputCols(plan *Plan) []*colstore.Column {
	return m.cols[len(plan.probes):][:len(plan.inputs)]
}

// sealedMorsel is block bi of the sealed fact table under the given slot
// binding. del (nil = none) is the sealed-side deletion vector, one bit per
// fact row, so the block's window into it starts at the block's first row.
func (db *DB) sealedMorsel(cols []*colstore.Column, del *bitmap.Bitmap, bi int) morsel {
	base := bi * colstore.BlockSize
	return morsel{cols: cols, bi: bi, n: min(db.numRows-base, colstore.BlockSize), del: del, delBase: base}
}

// deltaChunk is one morsel's worth of a delta snapshot: rows [lo, hi) of a
// batch, the first of which has delta-global index base.
type deltaChunk struct {
	b      *delta.Batch
	lo, hi int
	base   int64
}

// deltaSource presents one fact column of a delta snapshot as a
// colstore.ColumnSource: each chunk is a plain-encoded segment that is a
// zero-copy window onto the batch's value slice, zone-mapped by the batch's
// running min/max (a superset of the window's range, so pruning and
// coverage decisions stay sound). Segments are whatever length the insert
// batches were, which suits the block routine and Delete's Filter and
// FilterAt — they walk segments by their lengths — but not Get, which
// assumes BlockSize segments.
//
// Wrapping a chunk scans it for the block's own bounds (which no kernel
// reads), so blocks memoizes the wrap for the life of the source — one
// scanDelta or Delete call, one goroutine — however many probes and gathers
// acquire it.
type deltaSource struct {
	chunks []deltaChunk
	name   string
	blocks []compress.IntBlock
}

func (s deltaSource) NumSegments() int { return len(s.chunks) }

func (s deltaSource) SegRows(i int) int { return s.chunks[i].hi - s.chunks[i].lo }

func (s deltaSource) SegMinMax(i int) (int32, int32) {
	mn, mx, _ := s.chunks[i].b.MinMax(s.name)
	return mn, mx
}

func (s deltaSource) SegEncoding(int) compress.Encoding { return compress.Plain }

func (s deltaSource) SegBytes(i int) int64 { return int64(s.SegRows(i)) * 4 }

func (s deltaSource) Acquire(i int) (compress.IntBlock, func(), error) {
	if s.blocks[i] == nil {
		c := s.chunks[i]
		s.blocks[i] = compress.NewPlainBlock(c.b.Col(s.name)[c.lo:c.hi])
	}
	return s.blocks[i], func() {}, nil
}

// deltaChunks cuts a delta snapshot into morsel-sized chunks: every live
// batch in pieces of at most BlockSize rows, in delta-global row order.
func deltaChunks(view *delta.View) []deltaChunk {
	var chunks []deltaChunk
	next := view.Lo()
	view.ForEach(func(b *delta.Batch, lo, hi int) bool {
		for ; lo < hi; lo += colstore.BlockSize {
			end := min(lo+colstore.BlockSize, hi)
			chunks = append(chunks, deltaChunk{b: b, lo: lo, hi: end, base: next})
			next += int64(end - lo)
		}
		return true
	})
	return chunks
}

// deltaColumn presents the named fact column of chunks as a column, one
// segment per chunk; position p is delta-global row chunks[0].base+p.
func deltaColumn(chunks []deltaChunk, name string) *colstore.Column {
	return colstore.NewSourcedColumn(name, nil, colstore.Unsorted,
		deltaSource{chunks: chunks, name: name, blocks: make([]compress.IntBlock, len(chunks))})
}

// deltaMorsels cuts the write-store side of a snapshot into morsels, one
// per deltaChunks chunk, bound to the plan's slots through deltaColumn
// columns. del (nil = none) is the write-store deletion vector, indexed by
// delta-global row; a morsel carries it only when a tombstone actually
// falls inside its window.
func deltaMorsels(plan *Plan, view *delta.View, del *bitmap.Bitmap) []morsel {
	chunks := deltaChunks(view)
	// One source per column, however many slots name it (flight 1 probes
	// lo_discount and multiplies by it), so the slots share its blocks.
	byName := map[string]*colstore.Column{}
	cols := plan.bind(func(name string) *colstore.Column {
		if byName[name] == nil {
			byName[name] = deltaColumn(chunks, name)
		}
		return byName[name]
	})
	ms := make([]morsel, len(chunks))
	for i, c := range chunks {
		ms[i] = morsel{cols: cols, bi: i, n: c.hi - c.lo}
		// CountRange clamps to the vector's length: rows inserted after the
		// last delete lie past it and are implicitly live.
		if del != nil && del.CountRange(int(c.base), int(c.base)+ms[i].n) > 0 {
			ms[i].del, ms[i].delBase = del, int(c.base)
		}
	}
	return ms
}

// scanDelta runs the plan over the write-store side of a snapshot: its
// morsels go through the same block routine the fused engine runs over
// sealed blocks, into the same aggregator (ws.agg already holds the sealed
// side's accumulation when a late-materialized engine produced it).
//
// The pass is free in the logical I/O model — delta values are
// memory-resident writes — so whatever the routine charges lands in the
// worker's stats after the caller has collected them, and is dropped. It is
// one trace stage: rows scanned vs qualifying, morsels pruned/covered by the
// unflushed zone maps, kernel folds, and the tombstoned rows of every morsel
// the zone maps did not prune (whether or not the probes would have kept
// them: a delete masks the row, not the match).
func (db *DB) scanDelta(ctx context.Context, plan *Plan, view *delta.View, del *bitmap.Bitmap, ws *fusedWorker, tr *obs.Trace) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	ws.st = iosim.Stats{}
	clear(ws.stages)
	plan.loadExtractors(db, nil)
	ms := deltaMorsels(plan, view, del)
	var tomb int64
	for i := range ms {
		if ctx.Err() != nil {
			return
		}
		m, pruned := &ms[i], ws.st.BlocksPruned
		fusedBlock(m, plan, ws)
		if tr != nil && m.del != nil && ws.st.BlocksPruned == pruned {
			tomb += int64(m.del.CountRange(m.delBase, m.delBase+m.n))
		}
	}
	if tr != nil {
		tr.AddStage("ws-scan", fmt.Sprintf("%d delta rows", view.Len()), obs.StageCounters{
			RowsIn:        view.Len(),
			RowsOut:       ws.stages[len(plan.probes)].RowsOut,
			BlocksPruned:  ws.st.BlocksPruned,
			BlocksCovered: ws.st.BlocksCovered,
			KernelFolds:   ws.st.KernelFolds,
			Tombstoned:    tomb,
			WallNs:        time.Since(t0).Nanoseconds(),
		})
	}
}
