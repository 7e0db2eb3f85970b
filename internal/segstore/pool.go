package segstore

import (
	"sync"

	"repro/internal/compress"
	"repro/internal/iosim"
)

// SegKey identifies one physical segment in a store: the column's global
// ordinal in the file footer and the segment's physical frame id within the
// column (segMeta.pid). For a freshly opened file frame ids coincide with
// segment indexes; appends assign fresh ids, so a directory snapshot from
// before an append and the post-append directory can both cache their
// (different) tail segments without colliding.
type SegKey struct {
	Col int32
	Seg int32
}

// PoolStats reports what the buffer pool has done since its last reset.
type PoolStats struct {
	// Hits counts Acquire calls answered by a resident segment.
	Hits int64 `json:"hits"`
	// Misses counts Acquire calls that had to fetch from storage. With an
	// unbounded budget every distinct segment misses exactly once, so
	// Misses is also the count of distinct segments ever read.
	Misses int64 `json:"misses"`
	// Evictions counts segments dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// BytesRead is the total payload bytes fetched from storage.
	BytesRead int64 `json:"bytes_read"`
	// Resident is the current resident byte total; Peak its high-water
	// mark (may exceed the budget when every frame is pinned). Frames hold
	// wire-native blocks, so Resident counts compressed payload bytes —
	// the bytes the budget is spent on.
	Resident int64 `json:"resident"`
	Peak     int64 `json:"peak"`
	// ResidentLogical is the decoded (4 B/value) size of the same resident
	// segments — what a pool that eagerly decoded on load would need for
	// this working set. ResidentLogical / Resident is the pool's effective
	// compression ratio; the gap is capacity the wire-native design wins.
	ResidentLogical int64 `json:"resident_logical"`
	// Appends counts Store.Append calls (tuple-mover compactions landing
	// on this file); AppendedBytes their total payload bytes. Reset zeroes
	// them with the rest of the epoch's counters.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	// IO prices the pool's physical storage traffic in the simulated-disk
	// model: payload bytes plus one seek per miss (segments are fetched by
	// random offset, not sequentially). This is the *physical* side of the
	// accounting split — executors keep charging logical reads to their
	// own iosim.Stats exactly as the in-memory engines do, so results and
	// logical I/O stay bit-identical, while the pool records what actually
	// hit "disk" (cold misses only, not warm hits).
	IO iosim.Stats `json:"-"`
}

// fetchFunc loads and decodes one segment, returning the block and its
// on-disk payload size.
type fetchFunc func(k SegKey) (compress.IntBlock, int64, error)

// frame is one resident (or loading) segment.
type frame struct {
	key     SegKey
	blk     compress.IntBlock
	bytes   int64 // compressed payload bytes (what the budget charges)
	logical int64 // decoded size, 4 B/value (reporting only)
	pins    int
	ref     bool          // clock reference bit
	ready   chan struct{} // closed once blk/err are populated
	err     error
}

// Pool is the buffer manager: a byte-budgeted cache of wire-native segment
// blocks (RLE runs, packed words — never eagerly decoded value slices; the
// budget charges compressed payload bytes) with pinned-reference counting
// and clock (second-chance) eviction.
// All methods are safe for concurrent use; the fused executor's morsel
// workers acquire segments from many goroutines at once. The pool lock is
// never held across a storage fetch — concurrent misses on different
// segments overlap, and concurrent requests for the same loading segment
// wait on the frame's ready channel.
type Pool struct {
	mu      sync.Mutex
	budget  int64             // <= 0 means unbounded; immutable after NewPool
	used    int64             // guarded by mu
	logical int64             // guarded by mu; decoded size of resident frames (reporting only)
	frames  map[SegKey]*frame // guarded by mu
	ring    []*frame          // guarded by mu; clock order
	hand    int               // guarded by mu
	stats   PoolStats         // guarded by mu
	fetch   fetchFunc
}

// NewPool returns a pool that fetches segments through fetch and keeps at
// most budget resident payload bytes (<= 0 for unbounded). Pinned frames
// are never evicted, so the budget is exceeded transiently when a query
// pins more than fits.
func NewPool(budget int64, fetch fetchFunc) *Pool {
	return &Pool{budget: budget, frames: map[SegKey]*frame{}, fetch: fetch}
}

// Budget returns the configured byte budget (<= 0 means unbounded).
func (p *Pool) Budget() int64 { return p.budget }

// Acquire returns the decoded segment for k, pinned until the returned
// release function is called (exactly once).
func (p *Pool) Acquire(k SegKey) (compress.IntBlock, func(), error) {
	p.mu.Lock()
	if f, ok := p.frames[k]; ok {
		f.pins++
		f.ref = true
		p.stats.Hits++
		p.mu.Unlock()
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, nil, f.err
		}
		return f.blk, func() { p.unpin(f) }, nil
	}
	f := &frame{key: k, pins: 1, ready: make(chan struct{})}
	p.frames[k] = f
	p.ring = append(p.ring, f)
	p.mu.Unlock()

	blk, bytes, err := p.fetch(k)

	// The whole stats entry for a miss (the miss count, its payload bytes
	// and its priced physical I/O) commits under one lock hold at fetch
	// completion, not at registration: a Reset that lands mid-fetch then
	// sees either none of the miss or all of it, never a Misses tick whose
	// BytesRead was zeroed away (or vice versa). A fetch in flight across a
	// Reset is charged to the epoch in which it completes — the epoch its
	// frame is resident in.
	p.mu.Lock()
	p.stats.Misses++
	if err != nil {
		// Drop the frame so a later Acquire can retry; waiters observe
		// the error through the frame they already hold.
		f.err = err
		p.removeLocked(f)
		close(f.ready)
		p.mu.Unlock()
		p.unpin(f)
		return nil, nil, err
	}
	f.blk, f.bytes = blk, bytes
	f.logical = int64(blk.Len()) * 4
	p.used += bytes
	p.logical += f.logical
	p.stats.BytesRead += bytes
	p.stats.IO.Read(bytes)
	p.stats.IO.AddSeeks(1)
	if p.used > p.stats.Peak {
		p.stats.Peak = p.used
	}
	p.evictLocked()
	close(f.ready)
	p.mu.Unlock()
	return blk, func() { p.unpin(f) }, nil
}

// unpin decrements a frame's pin count. If the pool was forced over budget
// while everything was pinned, the release that makes frames evictable
// sweeps back under budget — without this, a workload whose last miss
// happened under heavy pinning would sit over budget until some future
// miss.
func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	f.pins--
	if p.budget > 0 && p.used > p.budget {
		p.evictLocked()
	}
	p.mu.Unlock()
}

// evictLocked runs the clock hand until the pool fits its budget or a full
// double sweep finds nothing evictable (everything pinned). First pass over
// a referenced frame clears its reference bit; second pass evicts it —
// standard second-chance. holds mu.
func (p *Pool) evictLocked() {
	if p.budget <= 0 {
		return
	}
	scanned := 0
	for p.used > p.budget && scanned < 2*len(p.ring) {
		if len(p.ring) == 0 {
			return
		}
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		switch {
		case f.pins > 0:
			p.hand++
		case f.ref:
			f.ref = false
			p.hand++
		default:
			p.used -= f.bytes
			p.logical -= f.logical
			p.stats.Evictions++
			p.removeLocked(f)
			// removeLocked moved another frame into this slot; do not
			// advance the hand.
			continue
		}
		scanned++
	}
}

// removeLocked detaches f from the map and the clock ring (swap-remove).
// holds mu.
func (p *Pool) removeLocked(f *frame) {
	delete(p.frames, f.key)
	for i, g := range p.ring {
		if g == f {
			p.ring[i] = p.ring[len(p.ring)-1]
			p.ring = p.ring[:len(p.ring)-1]
			break
		}
	}
	if p.hand >= len(p.ring) {
		p.hand = 0
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Resident = p.used
	s.ResidentLogical = p.logical
	return s
}

// noteAppend records one append pass's payload bytes landing on the
// backing file.
func (p *Pool) noteAppend(bytes int64) {
	p.mu.Lock()
	p.stats.Appends++
	p.stats.AppendedBytes += bytes
	p.mu.Unlock()
}

// PinnedFrames returns the number of frames with a nonzero pin count. A
// quiesced pool (no query in flight) must report zero — every executor path
// releases each block it acquires before moving on, and the leak-check
// tests assert this after every full query run.
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.ring {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Reset drops every unpinned frame and zeroes the counters, so a following
// run measures a cold cache. Pinned frames (a concurrent query in flight)
// survive with their bytes still counted, and a fetch in flight at reset
// time commits its miss/bytes entry to the new epoch when it completes
// (see Acquire) — the counters stay internally consistent either way.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.ring[:0]
	for _, f := range p.ring {
		if f.pins > 0 {
			kept = append(kept, f)
			continue
		}
		delete(p.frames, f.key)
		p.used -= f.bytes
		p.logical -= f.logical
	}
	p.ring = kept
	p.hand = 0
	p.stats = PoolStats{}
}
