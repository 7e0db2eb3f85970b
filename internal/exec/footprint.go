package exec

import (
	"repro/internal/colstore"
	"repro/internal/ssb"
)

// EstimateFootprint bounds the transient memory one execution of q under cfg
// needs from shared resources, in bytes, using catalog metadata only (zone
// maps, dictionary sizes, worker plan) — no I/O is charged and no segment is
// read. The serving layer's admission controller sizes its byte-budget
// semaphore with this estimate so that the queries it lets run concurrently
// cannot collectively pin (or churn) more buffer-pool space than exists. It
// is a worst case, not an average; estimateFrozen says what each engine is
// charged for.
func (db *DB) EstimateFootprint(q *ssb.Query, cfg Config) int64 {
	sdb, view, _, _ := db.snapshotForRead()
	foot := sdb.estimateFrozen(q, cfg)
	if view != nil {
		// The write-store scan walks the live delta batches; charge their
		// resident bytes so admission accounts for WS memory pressure too.
		foot += view.Bytes()
	}
	return foot
}

// estimateFrozen bounds the sealed-store scan of q under cfg.
func (db *DB) estimateFrozen(q *ssb.Query, cfg Config) int64 {
	space := db.fusedGroupSpace(q)
	fused := cfg.FusedActive()
	workers := 1
	if fused {
		// The compiled plan's group space is at most the catalog's and may
		// be small enough to keep every worker where the catalog space alone
		// would drop the scan to one, so charge the workers a zero space
		// allows.
		nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
		workers = fusedWorkersFor(cfg.Workers, 0, nb)
	}

	// Pinned segments: a worker pins at most one block per needed fact
	// column at a time (AcquireBlock is scoped to one block operation).
	// Per-column maxima are immutable and memoized on the DB, so a served
	// query's admission costs O(columns), not a zone-map walk.
	needed := q.NeededFactColumns()
	var perBlock int64
	for _, name := range needed {
		perBlock += db.maxBlockBytes(db.Fact.MustColumn(name))
	}
	foot := perBlock * int64(workers)

	// Dimension predicate evaluation (join phase 1, shared by every path)
	// pins one block of each filtered dimension column at a time; the date
	// membership fallback additionally reads the datekey column.
	for _, f := range q.DimFilters {
		foot += db.maxBlockBytes(db.Dims[f.Dim].MustColumn(f.Col))
	}

	specs := q.AggSpecs()
	nAggs := int64(len(specs))
	aggColNames, _, _ := ssb.AggInputs(specs)
	nAggCols := int64(len(aggColNames))

	switch {
	case fused:
		// Per-worker block scratch: survivor index + probe value vectors
		// (4 B each), composite group indexes (8 B), FK gather buffer
		// (4 B), one gather buffer per distinct aggregate input column
		// (4 B), and the two selection bitmaps — all bounded by one
		// 64K-row block, which the bitmap-driven kernels can fill on a
		// fully selected block.
		perWorker := int64(colstore.BlockSize)*(4+4+8+4+4*nAggCols) +
			2*int64(colstore.BlockSize)/8
		foot += perWorker * int64(workers)
	case cfg.LateMat:
		// Per-probe aggregation scratch at the final positions: gathered
		// measure columns plus one evaluated int64 column per aggregate,
		// each bounded by the fact row count (an upper bound with kernels
		// on, where ungrouped aggregates fold per block instead).
		foot += int64(db.numRows) * (4*nAggCols + 8*nAggs)
	}

	if len(q.GroupBy) > 0 {
		// One array of plan-space x nAggs int64 cells per worker, where the
		// plan's space is at most the catalog's: every worker's when it fits
		// fusedWorkerDenseLimit, one worker's otherwise. Past the dense limit
		// the aggregator hashes and its footprint tracks the groups actually
		// seen; bound it by the dense limit rather than the raw (possibly
		// astronomically overestimated) space.
		cells := max(min(space, fusedWorkerDenseLimit)*int64(workers), min(space, denseLimit))
		foot += cells * nAggs * 8
		// Each GROUP BY column decodes its dimension attribute column.
		for _, g := range q.GroupBy {
			foot += int64(db.Dims[g.Dim].NumRows()) * 4
		}
	}

	switch {
	case !cfg.LateMat:
		// Early materialization: decoded needed columns + constructed
		// tuples, each 4 bytes/value.
		foot += int64(db.numRows) * 4 * int64(len(needed)) * 2
	case !fused:
		// A full-fact bitmap per live selection: the probe's output plus
		// the pipelined candidate list.
		foot += int64(db.numRows/8) * 2
	}
	return foot
}

// maxBlockBytes returns (memoizing) the largest on-disk block of col, from
// zone-map metadata only. Columns are immutable once built, so the memo
// never invalidates.
func (db *DB) maxBlockBytes(col *colstore.Column) int64 {
	c := db.footCache
	c.mu.Lock()
	if mx, ok := c.max[col]; ok {
		c.mu.Unlock()
		return mx
	}
	c.mu.Unlock()
	var mx int64
	for i := 0; i < col.NumBlocks(); i++ {
		if b := col.BlockBytes(i); b > mx {
			mx = b
		}
	}
	c.mu.Lock()
	c.max[col] = mx
	c.mu.Unlock()
	return mx
}
