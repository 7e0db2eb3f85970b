package exec

import (
	"repro/internal/colstore"
	"repro/internal/ssb"
)

// EstimateFootprint bounds the transient memory one fused execution of q
// with the given worker count (FusedOpt's Workers: the engine the server
// runs) needs from shared resources, in bytes, using catalog metadata only
// (zone maps, dictionary sizes, worker plan) — no I/O is charged and no
// segment is read. The serving layer's admission controller sizes its
// byte-budget semaphore with this estimate so that the queries it lets run
// concurrently cannot collectively pin (or churn) more buffer-pool space
// than exists. It is a worst case, not an average.
func (db *DB) EstimateFootprint(q *ssb.Query, workers int) int64 {
	sdb, view, _, _ := db.snapshotForRead()
	foot := sdb.estimateFrozen(q, workers)
	if view != nil {
		// The write-store scan walks the live delta batches; charge their
		// resident bytes so admission accounts for WS memory pressure too.
		foot += view.Bytes()
	}
	return foot
}

// estimateFrozen bounds the sealed-store scan of q.
func (db *DB) estimateFrozen(q *ssb.Query, cfgWorkers int) int64 {
	// The compiled plan's group space is at most the catalog's and may be
	// small enough to keep every worker where the catalog space alone would
	// drop the scan to one, so charge the workers a zero space allows.
	nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
	workers := int64(fusedWorkersFor(cfgWorkers, 0, nb))

	// Pinned segments: a worker pins at most one block per needed fact
	// column at a time (AcquireBlock is scoped to one block operation).
	var perBlock int64
	for _, name := range q.NeededFactColumns() {
		perBlock += maxBlockBytes(db.Fact.MustColumn(name))
	}
	foot := perBlock * workers

	// Dimension predicate evaluation (join phase 1) pins one block of each
	// filtered dimension column at a time.
	for _, f := range q.DimFilters {
		foot += maxBlockBytes(db.Dims[f.Dim].MustColumn(f.Col))
	}

	// Per-worker block scratch: survivor index + probe value vectors (4 B
	// each), composite group indexes (8 B), FK gather buffer (4 B), one
	// gather buffer per distinct aggregate input column (4 B), and the two
	// selection bitmaps — all bounded by one 64K-row block, which the
	// bitmap-driven kernels can fill on a fully selected block.
	nAggs := int64(len(q.Aggs))
	aggColNames, _, _ := ssb.AggInputs(q.Aggs)
	perWorker := int64(colstore.BlockSize)*(4+4+8+4+4*int64(len(aggColNames))) +
		2*int64(colstore.BlockSize)/8
	foot += perWorker * workers

	if len(q.GroupBy) > 0 {
		// One array of plan-space x nAggs int64 cells per worker, where the
		// plan's space is at most the catalog's: every worker's when it fits
		// fusedWorkerDenseLimit, one worker's otherwise. Past the dense limit
		// the aggregator hashes and its footprint tracks the groups actually
		// seen; bound it by the dense limit rather than the raw (possibly
		// astronomically overestimated) space.
		space, _ := db.groupSpace(q) // saturated past int64: RunCtx refuses such a query
		cells := max(min(space, fusedWorkerDenseLimit)*workers, min(space, denseLimit))
		foot += cells * nAggs * 8
		// Each GROUP BY column decodes its dimension attribute column.
		for _, g := range q.GroupBy {
			foot += int64(db.Dims[g.Dim].NumRows()) * 4
		}
	}
	return foot
}

// maxBlockBytes returns the largest on-disk block of col, from zone-map
// metadata only.
func maxBlockBytes(col *colstore.Column) int64 {
	var mx int64
	for i := 0; i < col.NumBlocks(); i++ {
		mx = max(mx, col.BlockBytes(i))
	}
	return mx
}
