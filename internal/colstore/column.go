// Package colstore implements the C-Store-style storage layer: tables whose
// columns are stored separately as sequences of encoded blocks, matched up
// implicitly by position (Section 6.3.1 — "they use implicit column
// positions to reconstruct columns... tuple headers are stored in their own
// separate columns").
//
// String columns are dictionary encoded with an order-preserving dictionary
// (compress.Dict); all physical storage and execution is over int32 codes.
//
// A column's blocks live in one of two places: resident (the []IntBlock the
// column was built with, the in-memory engines' mode) or behind a
// ColumnSource (a segment file's buffer pool, internal/segstore). Executors
// see one API either way: zone-map queries (BlockMinMax, BlockLen,
// BlockEncoding, BlockBytes) never perform I/O, and AcquireBlock pins the
// decoded block only when values are actually needed — which is what makes
// min/max pruning skip pruned segments before any disk read happens.
package colstore

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/vector"
)

// BlockSize is the number of values per encoded block (a C-Store-style
// segment). 64K values keeps per-block min/max pruning useful.
const BlockSize = 1 << 16

// SortKind describes a column's sort property within its projection.
type SortKind uint8

const (
	// Unsorted columns have no ordering guarantee.
	Unsorted SortKind = iota
	// PrimarySort means the whole column is sorted ascending (the
	// projection's leading sort key, e.g. orderdate).
	PrimarySort
	// SecondarySort means the column is sorted within runs of the
	// preceding sort keys (e.g. quantity within orderdate).
	SecondarySort
)

// ColumnSource supplies a column's encoded segments on demand from external
// storage. The zone-map queries (SegRows, SegMinMax, SegEncoding, SegBytes)
// answer from persisted metadata and must not perform I/O; Acquire returns
// the decoded segment pinned in the source's buffer pool until the release
// function is called. Every segment except the last must hold exactly
// BlockSize rows (positional addressing depends on it). Implementations
// must be safe for concurrent use: the fused executor acquires blocks from
// multiple morsel workers at once.
type ColumnSource interface {
	// NumSegments returns the segment count.
	NumSegments() int
	// SegRows returns segment i's row count.
	SegRows(i int) int
	// SegMinMax returns segment i's persisted zone-map bounds.
	SegMinMax(i int) (min, max int32)
	// SegEncoding returns segment i's physical encoding tag.
	SegEncoding(i int) compress.Encoding
	// SegBytes returns segment i's model-accounting compressed size —
	// what IntBlock.CompressedBytes reports for the decoded block, which
	// the logical I/O layer charges. It intentionally differs from the
	// raw on-disk payload length (the wire format adds small structural
	// headers); returning the payload length here would skew logical I/O
	// away from the resident-column engines.
	SegBytes(i int) int64
	// Acquire returns segment i decoded and pinned; the caller must call
	// the release function exactly once when done with the block.
	Acquire(i int) (compress.IntBlock, func(), error)
}

// Column is one attribute stored as encoded blocks. For string attributes,
// Dict is non-nil and block values are dictionary codes.
type Column struct {
	Name   string
	Sorted SortKind
	Dict   *compress.Dict

	blocks []compress.IntBlock // resident mode
	src    ColumnSource        // sourced mode (nil when resident)
	n      int
}

// NewColumn builds a resident column over vals. When compressed is true each
// block picks its own encoding via compress.Choose; otherwise all blocks are
// plain, which is how the Figure 7 "compression removed" configuration is
// expressed.
func NewColumn(name string, vals []int32, dict *compress.Dict, sorted SortKind, compressed bool) *Column {
	c := &Column{Name: name, Sorted: sorted, Dict: dict, n: len(vals)}
	for off := 0; off < len(vals); off += BlockSize {
		end := off + BlockSize
		if end > len(vals) {
			end = len(vals)
		}
		chunk := vals[off:end]
		if compressed {
			c.blocks = append(c.blocks, compress.Choose(chunk))
		} else {
			c.blocks = append(c.blocks, compress.NewPlainBlock(chunk))
		}
	}
	return c
}

// NewSourcedColumn builds a column whose blocks are served by src (a segment
// file's buffer pool). Zone-map queries answer from src metadata without
// I/O; values load lazily through Acquire.
func NewSourcedColumn(name string, dict *compress.Dict, sorted SortKind, src ColumnSource) *Column {
	c := &Column{Name: name, Sorted: sorted, Dict: dict, src: src}
	for i := 0; i < src.NumSegments(); i++ {
		c.n += src.SegRows(i)
	}
	return c
}

// noopRelease is the release function for resident blocks, shared to keep
// AcquireBlock allocation-free on the in-memory path.
func noopRelease() {}

// AcquireBlock returns block i and a release function the caller must invoke
// when finished with it. Resident blocks return a no-op release; sourced
// blocks are pinned in the source's buffer pool until released. A source
// read failure (corrupt or vanished segment file) panics with the column and
// segment named: executors have no error path mid-scan, and a storage-layer
// integrity failure is not a recoverable query condition.
func (c *Column) AcquireBlock(i int) (compress.IntBlock, func()) {
	if c.src == nil {
		return c.blocks[i], noopRelease
	}
	blk, release, err := c.src.Acquire(i)
	if err != nil {
		panic(fmt.Sprintf("colstore: column %q segment %d: %v", c.Name, i, err))
	}
	return blk, release
}

// NumRows returns the number of values in the column.
func (c *Column) NumRows() int { return c.n }

// NumBlocks returns the block count.
func (c *Column) NumBlocks() int {
	if c.src != nil {
		return c.src.NumSegments()
	}
	return len(c.blocks)
}

// BlockLen returns block i's row count without touching values.
func (c *Column) BlockLen(i int) int {
	if c.src != nil {
		return c.src.SegRows(i)
	}
	return c.blocks[i].Len()
}

// BlockMinMax returns block i's zone-map bounds without touching values:
// from the persisted zone map for sourced columns, from the in-memory block
// statistics otherwise. This is the pruning entry point — callers decide
// from it whether a block is ever acquired.
func (c *Column) BlockMinMax(i int) (int32, int32) {
	if c.src != nil {
		return c.src.SegMinMax(i)
	}
	return c.blocks[i].MinMax()
}

// BlockEncoding returns block i's physical encoding without touching values.
func (c *Column) BlockEncoding(i int) compress.Encoding {
	if c.src != nil {
		return c.src.SegEncoding(i)
	}
	return c.blocks[i].Encoding()
}

// BlockBytes returns block i's on-disk footprint without touching values.
func (c *Column) BlockBytes(i int) int64 {
	if c.src != nil {
		return c.src.SegBytes(i)
	}
	return c.blocks[i].CompressedBytes()
}

// CompressedBytes is the on-disk footprint charged when scanning the column.
func (c *Column) CompressedBytes() int64 {
	var n int64
	for i := 0; i < c.NumBlocks(); i++ {
		n += c.BlockBytes(i)
	}
	return n
}

// RawBytes is the uncompressed footprint (4 bytes per value).
func (c *Column) RawBytes() int64 { return int64(c.n) * 4 }

// Encodings summarises block encodings, for stats output.
func (c *Column) Encodings() map[compress.Encoding]int {
	m := map[compress.Encoding]int{}
	for i := 0; i < c.NumBlocks(); i++ {
		m[c.BlockEncoding(i)]++
	}
	return m
}

// Filter scans the column with predicate p and returns the matching
// positions. Blocks whose zone-map statistics exclude the predicate are
// skipped without charging I/O or being acquired (for sourced columns their
// segments are never read from disk). For a primary-sorted column with an
// interval predicate the result collapses to a contiguous PosRange found by
// block statistics plus an in-block range probe, reading only the boundary
// blocks.
func (c *Column) Filter(p compress.Pred, st *iosim.Stats) *vector.Positions {
	return c.FilterCtx(context.Background(), p, st)
}

// FilterCtx is Filter with cancellation: the block loop checks ctx before
// acquiring each block and stops scanning once it is done (the sorted fast
// path reads at most two boundary blocks, below any useful cancellation
// granularity). A canceled scan's positions are a prefix and must be
// discarded by the caller.
func (c *Column) FilterCtx(ctx context.Context, p compress.Pred, st *iosim.Stats) *vector.Positions {
	if c.Sorted == PrimarySort {
		if pos, ok := c.sortedFilter(p, st); ok {
			return pos
		}
	}
	bm := bitmap.New(c.n)
	base := 0
	for bi := 0; bi < c.NumBlocks(); bi++ {
		if ctx.Err() != nil {
			break
		}
		mn, mx := c.BlockMinMax(bi)
		if p.MayMatch(mn, mx) {
			blk, release := c.AcquireBlock(bi)
			st.BlockFetched()
			st.Read(blk.CompressedBytes())
			st.KernelFold()
			blk.Filter(p, base, bm)
			release()
		} else {
			st.BlockPruned()
		}
		base += c.BlockLen(bi)
	}
	return vector.NewBitmapPositions(bm)
}

// sortedFilter exploits a globally sorted column: the matching positions are
// one contiguous range. Only boundary blocks are acquired; fully covered
// blocks are answered from the zone map alone.
func (c *Column) sortedFilter(p compress.Pred, st *iosim.Stats) (*vector.Positions, bool) {
	lo, hi, ok := p.Bounds()
	if !ok {
		return nil, false
	}
	start, end := int32(-1), int32(-1)
	base := int32(0)
	//lint:ignore ctxloop bounded: a sorted column's match range is contiguous, so at most two boundary blocks are ever acquired; the rest of the sweep is zone-map metadata
	for bi := 0; bi < c.NumBlocks(); bi++ {
		mn, mx := c.BlockMinMax(bi)
		blkLen := int32(c.BlockLen(bi))
		if mx >= lo && mn <= hi {
			// Boundary or interior block.
			if mn >= lo && mx <= hi {
				// Fully inside: covered without reading values.
				st.BlockCovered()
				if start < 0 {
					start = base
				}
				end = base + blkLen
			} else {
				// Boundary block: read it to locate the edge.
				blk, release := c.AcquireBlock(bi)
				st.BlockFetched()
				st.Read(blk.CompressedBytes())
				s, e := blockRange(blk, p, st)
				release()
				if e > s {
					if start < 0 {
						start = base + s
					}
					end = base + e
				}
			}
		} else {
			st.BlockPruned()
		}
		base += blkLen
	}
	if start < 0 {
		return vector.NewRangePositions(0, 0), true
	}
	return vector.NewRangePositions(start, end), true
}

// blockRange finds the in-block contiguous match range for a sorted block.
func blockRange(blk compress.IntBlock, p compress.Pred, st *iosim.Stats) (int32, int32) {
	if rle, ok := blk.(*compress.RLEBlock); ok {
		s, e, ok := rle.SortedFilterRange(p)
		if ok {
			st.KernelFold()
			if e < s {
				return 0, 0
			}
			return s, e
		}
	}
	// Other encodings: decode the boundary block once (this happens for
	// at most two blocks per sorted filter) and binary-search the sorted
	// values.
	lo, hi, _ := p.Bounds()
	vals := blk.AppendTo(nil)
	st.Gathered()
	st.Decoded(int64(len(vals)) * 4)
	start := sort.Search(len(vals), func(i int) bool { return vals[i] >= lo })
	end := sort.Search(len(vals), func(i int) bool { return vals[i] > hi })
	if start >= end {
		return 0, 0
	}
	return int32(start), int32(end)
}

// FilterAt applies p only at candidate positions (pipelined predicate
// application from Section 5.4: "the results of a predicate application can
// be pipelined into another predicate application to reduce the number of
// times the second predicate must be applied"). Only blocks containing
// candidates are read.
func (c *Column) FilterAt(p compress.Pred, candidates *vector.Positions, st *iosim.Stats) *vector.Positions {
	return c.FilterAtCtx(context.Background(), p, candidates, st)
}

// FilterAtCtx is FilterAt with cancellation, checked per candidate block.
func (c *Column) FilterAtCtx(ctx context.Context, p compress.Pred, candidates *vector.Positions, st *iosim.Stats) *vector.Positions {
	out := bitmap.New(c.n)
	var scratchIdx []int32
	var scratchVals []int32
	c.forEachCandidateBlockCtx(ctx, candidates, st, func(base int32, blk compress.IntBlock, idx []int32) {
		mn, mx := blk.MinMax()
		if !p.MayMatch(mn, mx) {
			return
		}
		st.Gathered()
		st.Decoded(int64(len(idx)) * 4)
		scratchVals = blk.Gather(idx, scratchVals[:0])
		for k, v := range scratchVals {
			if p.Match(v) {
				out.Set(int(base + idx[k]))
			}
		}
	}, &scratchIdx)
	return vector.NewBitmapPositions(out)
}

// GatherBlock gathers the values at sorted block-local indexes idx from
// block bi, charging positional I/O for the pages the indexes touch. It is
// the block-at-a-time access path of the fused executor: the caller owns the
// block loop and reuses idx/dst scratch across blocks.
func (c *Column) GatherBlock(bi int, idx []int32, dst []int32, st *iosim.Stats) []int32 {
	if len(idx) == 0 {
		return dst
	}
	blk, release := c.AcquireBlock(bi)
	st.BlockFetched()
	chargePositional(blk, idx, st)
	st.Gathered()
	st.Decoded(int64(len(idx)) * 4)
	dst = blk.Gather(idx, dst)
	release()
	return dst
}

// AggSelectBlock folds the values of block bi selected by the block-local
// bitmap sel into acc without materializing them, charging positional I/O
// for the pages the selected positions touch — the same pages GatherBlock
// would charge for the same positions, so kernel aggregation is
// storage-invariant in the I/O model.
func (c *Column) AggSelectBlock(bi int, sel *bitmap.Bitmap, st *iosim.Stats, acc *compress.AggAcc) {
	blk, release := c.AcquireBlock(bi)
	st.BlockFetched()
	chargePositionalSel(blk, sel, st)
	st.KernelFold()
	blk.AggSelect(sel, 0, acc)
	release()
}

// GatherSelectBlock appends the values of block bi selected by the
// block-local bitmap sel to dst — GatherBlock driven by a bitmap instead of
// an index list, so run/bitmap encodings walk their compressed
// representation once. I/O charging matches GatherBlock at the same
// positions.
func (c *Column) GatherSelectBlock(bi int, sel *bitmap.Bitmap, dst []int32, st *iosim.Stats) []int32 {
	blk, release := c.AcquireBlock(bi)
	st.BlockFetched()
	chargePositionalSel(blk, sel, st)
	n0 := len(dst)
	dst = blk.GatherSelect(sel, 0, dst)
	st.Gathered()
	st.Decoded(int64(len(dst)-n0) * 4)
	release()
	return dst
}

// AggSelectPositions folds the column's values at the given positions into
// acc. Blocks with no selected positions are never acquired, and I/O is
// charged exactly as Gather at the same positions would charge it. RLE
// blocks aggregate natively on their compressed representation (value x
// selected-run-length); the random-access encodings (plain, bit-packed)
// fold per position in code space. No encoding has to decode to aggregate.
func (c *Column) AggSelectPositions(ctx context.Context, positions *vector.Positions, st *iosim.Stats, acc *compress.AggAcc) {
	var scratchIdx []int32
	var sel *bitmap.Bitmap
	c.forEachCandidateBlockCtx(ctx, positions, st, func(base int32, blk compress.IntBlock, idx []int32) {
		if len(idx) == blk.Len() {
			// Fully covered block: every encoding folds natively (RLE by
			// run, Dict/BitPack in code space) without materializing a
			// single value.
			st.KernelFold()
			blk.AggSelect(nil, 0, acc)
			return
		}
		switch blk.Encoding() {
		case compress.RLE:
			if sel == nil {
				sel = bitmap.New(BlockSize)
			}
			for _, i := range idx {
				sel.Set(int(i))
			}
			st.KernelFold()
			blk.AggSelect(sel, 0, acc)
			for _, i := range idx {
				sel.Clear(int(i))
			}
		default:
			// Per-position code-space folds: a materializing op for the
			// trace, but no bytes decoded — Stats.DecodedBytes counts
			// values written out as raw int32s (AppendTo, Gather,
			// GatherSelect), and Get writes none.
			st.Gathered()
			for _, i := range idx {
				acc.Observe(blk.Get(int(i)), 1)
			}
		}
	}, &scratchIdx)
}

// chargePositionalSel is chargePositional driven by a block-local selection
// bitmap: it records the same distinct-page count the explicit index list
// of sel's set bits would produce.
func chargePositionalSel(blk compress.IntBlock, sel *bitmap.Bitmap, st *iosim.Stats) {
	if st == nil {
		return
	}
	if sel == nil {
		st.Read(blk.CompressedBytes())
		return
	}
	chargePages(selPages(sel, blk.Len(), bytesPerValue(blk.Len(), blk.CompressedBytes())), blk.CompressedBytes(), st)
}

// selPages counts the distinct pages holding a set bit of sel below end
// by hopping from one occupied page to the first set bit past its end,
// instead of classifying every set bit — O(occupied pages), not
// O(selection).
func selPages(sel *bitmap.Bitmap, end int, bytesPerVal float64) int64 {
	var pages int64
	for i := sel.NextSet(0); i >= 0 && i < end; i = sel.NextSet(pageEnd(i, bytesPerVal)) {
		pages++
	}
	return pages
}

// bytesPerValue is the page rule's bytes per value of n values stored in
// size bytes.
func bytesPerValue(n int, size int64) float64 { return float64(size) / float64(n) }

// pageOf is the I/O page holding block-local position i.
func pageOf(i int, bytesPerVal float64) int64 {
	return int64(float64(i) * bytesPerVal / ioPageBytes)
}

// pageEnd returns the first position past the page holding position i,
// under the same float rounding as pageOf (nudged for boundary error), so
// hopping page to page counts exactly the pages a per-position walk would.
func pageEnd(i int, bytesPerVal float64) int {
	page := pageOf(i, bytesPerVal)
	next := int(float64(page+1) * ioPageBytes / bytesPerVal)
	if next <= i {
		next = i + 1
	}
	for next > i+1 && pageOf(next-1, bytesPerVal) > page {
		next--
	}
	for pageOf(next, bytesPerVal) == page {
		next++
	}
	return next
}

// chargePages charges reading the given number of whole I/O pages of
// something size bytes long, capped at its size.
func chargePages(pages, size int64, st *iosim.Stats) {
	st.Read(min(pages*ioPageBytes, size))
}

// MinMax returns the column-wide minimum and maximum from zone-map
// statistics, without decoding any values or charging I/O.
func (c *Column) MinMax() (int32, int32) {
	nb := c.NumBlocks()
	if nb == 0 {
		return 0, 0
	}
	mn, mx := c.BlockMinMax(0)
	for i := 1; i < nb; i++ {
		bmn, bmx := c.BlockMinMax(i)
		if bmn < mn {
			mn = bmn
		}
		if bmx > mx {
			mx = bmx
		}
	}
	return mn, mx
}

// Gather appends the values at the given positions to dst, reading only the
// blocks that contain selected positions.
func (c *Column) Gather(positions *vector.Positions, dst []int32, st *iosim.Stats) []int32 {
	return c.GatherCtx(context.Background(), positions, dst, st)
}

// GatherCtx is Gather with cancellation, checked per candidate block. A
// canceled gather returns a prefix; callers must discard it.
func (c *Column) GatherCtx(ctx context.Context, positions *vector.Positions, dst []int32, st *iosim.Stats) []int32 {
	var scratchIdx []int32
	c.forEachCandidateBlockCtx(ctx, positions, st, func(base int32, blk compress.IntBlock, idx []int32) {
		st.Gathered()
		st.Decoded(int64(len(idx)) * 4)
		dst = blk.Gather(idx, dst)
	}, &scratchIdx)
	return dst
}

// ioPageBytes is the granularity of positional reads: fetching values at
// scattered positions transfers only the pages containing them, not the
// whole segment. 32 KB matches the paper's System X page size.
const ioPageBytes = 32 * 1024

// chargePositional records the I/O for reading the given sorted block-local
// indexes from blk: the number of distinct pages they fall on.
func chargePositional(blk compress.IntBlock, idx []int32, st *iosim.Stats) {
	if st == nil || len(idx) == 0 {
		return
	}
	chargePages(idxPages(idx, bytesPerValue(blk.Len(), blk.CompressedBytes())), blk.CompressedBytes(), st)
}

// idxPages counts the distinct pages the sorted indexes idx fall on. Like
// selPages it hops from each occupied page to the first index past its end
// (a binary search), so it costs O(occupied pages · log n), not a float
// multiply-divide per index.
func idxPages(idx []int32, bytesPerVal float64) int64 {
	var pages int64
	for len(idx) > 0 {
		pages++
		k, _ := slices.BinarySearch(idx, int32(pageEnd(int(idx[0]), bytesPerVal)))
		idx = idx[k:]
	}
	return pages
}

// ChargePositions applies the page rule of a block's positional read to a
// column stored outside this package: it records the I/O for reading
// positions pos of n values stored in size bytes — the distinct pages they
// fall on at size/n bytes per value, capped at size. Each form of pos is
// counted where it lies: a range from its ends, an explicit list and a
// bitmap by hopping page to page.
func ChargePositions(pos *vector.Positions, n int, size int64, st *iosim.Stats) {
	if st == nil {
		return
	}
	bytesPerVal := bytesPerValue(n, size)
	var pages int64
	switch pos.Kind {
	case vector.PosRange:
		// Consecutive positions lie on the same or the next page unless a
		// value is longer than a page, when each has its own.
		if pos.End > pos.Start {
			pages = min(pageOf(int(pos.End)-1, bytesPerVal)-pageOf(int(pos.Start), bytesPerVal)+1, int64(pos.End-pos.Start))
		}
	case vector.PosExplicit:
		pages = idxPages(pos.List, bytesPerVal)
	default:
		pages = selPages(pos.Bits, n, bytesPerVal)
	}
	chargePages(pages, size, st)
}

// forEachCandidateBlockCtx groups sorted candidate positions by block,
// charges I/O for the pages the candidates touch, and invokes fn with
// block-local indexes. Blocks with no candidates are never acquired. Once
// ctx is done, no further block is acquired (the remaining candidate
// positions are still walked, but only to group them — pure CPU, no pins,
// no I/O).
func (c *Column) forEachCandidateBlockCtx(ctx context.Context, candidates *vector.Positions, st *iosim.Stats, fn func(base int32, blk compress.IntBlock, idx []int32), scratch *[]int32) {
	bi := 0
	base := int32(0)
	blkEnd := int32(0)
	if c.NumBlocks() > 0 {
		blkEnd = int32(c.BlockLen(0))
	}
	idx := (*scratch)[:0]
	flush := func() {
		if len(idx) > 0 {
			if ctx.Err() != nil {
				idx = idx[:0]
				return
			}
			blk, release := c.AcquireBlock(bi)
			st.BlockFetched()
			chargePositional(blk, idx, st)
			fn(base, blk, idx)
			release()
			idx = idx[:0]
		}
	}
	candidates.ForEach(func(pos int32) {
		for pos >= blkEnd {
			flush()
			base = blkEnd
			bi++
			blkEnd += int32(c.BlockLen(bi))
		}
		idx = append(idx, pos-base)
	})
	flush()
	*scratch = idx[:0]
}

// DecodeAll decodes the whole column, appending to dst, charging a full
// sequential scan. It cannot be cancelled; query paths decoding more than
// a few blocks should use DecodeAllCtx.
func (c *Column) DecodeAll(dst []int32, st *iosim.Stats) []int32 {
	return c.DecodeAllCtx(context.Background(), dst, st)
}

// DecodeAllCtx is DecodeAll under a context: a cancelled ctx stops the
// decode within one block, returning the (truncated) prefix decoded so
// far. Callers racing cancellation must check ctx.Err before using the
// result, exactly as with the block pipelines.
func (c *Column) DecodeAllCtx(ctx context.Context, dst []int32, st *iosim.Stats) []int32 {
	// One allocation for the whole column instead of one per block's
	// append growth.
	dst = slices.Grow(dst, c.n)
	for bi := 0; bi < c.NumBlocks(); bi++ {
		if ctx.Err() != nil {
			return dst
		}
		blk, release := c.AcquireBlock(bi)
		st.BlockFetched()
		st.Read(blk.CompressedBytes())
		st.Gathered()
		st.Decoded(int64(blk.Len()) * 4)
		dst = blk.AppendTo(dst)
		release()
	}
	return dst
}

// Get returns the value at position i without I/O accounting (used by tests
// and by point lookups whose cost is charged by the caller).
func (c *Column) Get(i int32) int32 {
	blk, release := c.AcquireBlock(int(i) / BlockSize)
	v := blk.Get(int(i) % BlockSize)
	release()
	return v
}

// GetCounted is Get with block-acquire accounting: it records the pool
// acquire in st (one fetched block per call) without charging byte I/O,
// for point lookups whose byte cost the caller prices separately. Keeping
// the fetch counted is what lets a traced query's BlocksFetched reconcile
// exactly with the buffer pool's hit+miss delta.
func (c *Column) GetCounted(i int32, st *iosim.Stats) int32 {
	st.BlockFetched()
	return c.Get(i)
}

// ValueString renders the value at position i using the dictionary when
// present.
func (c *Column) ValueString(i int32) string {
	v := c.Get(i)
	if c.Dict != nil {
		return c.Dict.Value(v)
	}
	return fmt.Sprintf("%d", v)
}
