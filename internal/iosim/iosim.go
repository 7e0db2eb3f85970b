// Package iosim provides byte-level I/O accounting and an analytic disk
// cost model.
//
// The paper's experiments ran on a 4-disk striped array with 160–200 MB/s of
// aggregate sequential bandwidth, and almost every SSBM query at SF=10 is
// I/O bound. Our reproduction executes in memory, so instead of real disk
// time each operator records the bytes it would have read (compressed size
// for compressed columns, page bytes for row heaps, index bytes for
// index-only plans). Model converts those stats into simulated seconds,
// which the harness reports next to measured CPU time. This preserves the
// paper's "bytes touched" ordering — the mechanism behind RS vs MV vs VP
// differences — while CPU-bound effects (block iteration, invisible join,
// operating on compressed data) come from real measured execution.
package iosim

import (
	"sync/atomic"
	"time"
)

// Stats accumulates simulated I/O performed by a query. Methods are safe on
// a nil receiver so executors can run without accounting.
//
// A Stats value is single-owner: it is mutated without synchronization, so
// exactly one query execution may write to it at a time. Parallel executors
// give each worker a private Stats and merge with Add after the workers
// join; a serving layer running queries from many goroutines must allocate
// one Stats per query and fold finished queries' stats into an Atomic (or
// behind its own lock), never hand two in-flight queries the same pointer.
type Stats struct {
	// BytesRead is the total bytes transferred from "disk".
	BytesRead int64
	// BytesWritten is the total bytes spilled to "disk" (e.g. hash-join
	// partitions that exceed work memory).
	BytesWritten int64
	// Seeks counts random repositionings (index lookups, unclustered
	// leaf hops).
	Seeks int64

	// The remaining counters feed the per-query execution trace
	// (internal/obs). They are block-granular and deterministic for a
	// given plan: parallel executors make identical per-block decisions
	// and merge per-worker counters by addition, so — like BytesRead —
	// the differential harness can compare Stats values bit-for-bit
	// across worker counts and storage backends.

	// BlocksFetched counts column blocks actually acquired (from the
	// segment buffer pool or the in-memory column), BlocksPruned blocks
	// skipped entirely by a zone-map bound, and BlocksCovered blocks whose
	// zone map proved every row matches (no fetch either way).
	BlocksFetched int64
	BlocksPruned  int64
	BlocksCovered int64
	// DecodedBytes counts bytes materialized as raw int32 values (4 bytes
	// per value), charged by the engine beside each AppendTo, Gather and
	// GatherSelect — the one meter of what the compressed-block kernels
	// avoid decoding.
	DecodedBytes int64
	// KernelFolds counts operator applications executed natively on the
	// compressed representation (Filter/FilterSet/FilterFunc/AggSelect);
	// Gathers counts value-materializing block operations
	// (AppendTo/Gather/GatherSelect and per-position Get loops).
	KernelFolds int64
	Gathers     int64
}

// Read records n sequentially transferred bytes.
func (s *Stats) Read(n int64) {
	if s != nil {
		s.BytesRead += n
	}
}

// Write records n bytes spilled to disk.
func (s *Stats) Write(n int64) {
	if s != nil {
		s.BytesWritten += n
	}
}

// AddSeeks records n random seeks.
func (s *Stats) AddSeeks(n int64) {
	if s != nil {
		s.Seeks += n
	}
}

// BlockFetched records one column block acquired for processing.
func (s *Stats) BlockFetched() {
	if s != nil {
		s.BlocksFetched++
	}
}

// BlockPruned records one block skipped entirely by a zone-map bound.
func (s *Stats) BlockPruned() {
	if s != nil {
		s.BlocksPruned++
	}
}

// BlockCovered records one block fully accepted by a zone-map bound.
func (s *Stats) BlockCovered() {
	if s != nil {
		s.BlocksCovered++
	}
}

// Decoded records n bytes materialized as raw values.
func (s *Stats) Decoded(n int64) {
	if s != nil {
		s.DecodedBytes += n
	}
}

// KernelFold records one operation applied natively on compressed data.
func (s *Stats) KernelFold() {
	if s != nil {
		s.KernelFolds++
	}
}

// Gathered records one value-materializing block operation.
func (s *Stats) Gathered() {
	if s != nil {
		s.Gathers++
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	if s != nil {
		s.BytesRead += o.BytesRead
		s.BytesWritten += o.BytesWritten
		s.Seeks += o.Seeks
		s.BlocksFetched += o.BlocksFetched
		s.BlocksPruned += o.BlocksPruned
		s.BlocksCovered += o.BlocksCovered
		s.DecodedBytes += o.DecodedBytes
		s.KernelFolds += o.KernelFolds
		s.Gathers += o.Gathers
	}
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	if s != nil {
		*s = Stats{}
	}
}

// Atomic accumulates Stats from many goroutines without locking: the
// shared, cross-query side of the accounting split. Per-query Stats stay
// plain and single-owner (the executors mutate them with no
// synchronization); a server folds each finished query's Stats in with
// AddStats and reads running totals with Snapshot.
type Atomic struct {
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	seeks         atomic.Int64
	blocksFetched atomic.Int64
	blocksPruned  atomic.Int64
	blocksCovered atomic.Int64
	decodedBytes  atomic.Int64
	kernelFolds   atomic.Int64
	gathers       atomic.Int64
}

// AddStats folds one finished query's stats into the shared totals.
func (a *Atomic) AddStats(s Stats) {
	a.bytesRead.Add(s.BytesRead)
	a.bytesWritten.Add(s.BytesWritten)
	a.seeks.Add(s.Seeks)
	a.blocksFetched.Add(s.BlocksFetched)
	a.blocksPruned.Add(s.BlocksPruned)
	a.blocksCovered.Add(s.BlocksCovered)
	a.decodedBytes.Add(s.DecodedBytes)
	a.kernelFolds.Add(s.KernelFolds)
	a.gathers.Add(s.Gathers)
}

// Snapshot returns the accumulated totals as a plain Stats value. Each
// counter is read atomically; the set is not a single linearization
// point, which is fine for monitoring totals.
func (a *Atomic) Snapshot() Stats {
	return Stats{
		BytesRead:     a.bytesRead.Load(),
		BytesWritten:  a.bytesWritten.Load(),
		Seeks:         a.seeks.Load(),
		BlocksFetched: a.blocksFetched.Load(),
		BlocksPruned:  a.blocksPruned.Load(),
		BlocksCovered: a.blocksCovered.Load(),
		DecodedBytes:  a.decodedBytes.Load(),
		KernelFolds:   a.kernelFolds.Load(),
		Gathers:       a.gathers.Load(),
	}
}

// Model is an analytic disk: aggregate sequential throughput plus a fixed
// cost per seek.
type Model struct {
	// SeqMBPerSec is aggregate sequential read bandwidth in MB/s.
	SeqMBPerSec float64
	// SeekMillis is the cost of one random seek in milliseconds.
	SeekMillis float64
}

// PaperDisk models the paper's testbed: 4 striped disks at 40–50 MB/s each
// (180 MB/s aggregate) with commodity 2008-era seek times.
var PaperDisk = Model{SeqMBPerSec: 180, SeekMillis: 4}

// Time converts accumulated stats into simulated disk time.
func (m Model) Time(s Stats) time.Duration {
	if m.SeqMBPerSec <= 0 {
		return 0
	}
	secs := float64(s.BytesRead+s.BytesWritten)/(m.SeqMBPerSec*1e6) + float64(s.Seeks)*m.SeekMillis/1e3
	return time.Duration(secs * float64(time.Second))
}
