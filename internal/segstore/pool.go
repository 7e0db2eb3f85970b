package segstore

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/compress"
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
	// their payload — a bit-packed block is a view over the bytes read, and
	// RLE and plain blocks are no larger — so Resident counts compressed
	// payload bytes, the bytes the budget is spent on.
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
	// Mapped is every payload buffer the pool owns, page-rounded: the
	// resident frames' buffers, the spares and reads in flight. Spare is
	// the part kept for reuse after its frame left (see Pool). Both live
	// outside the Go heap, so neither is in runtime.MemStats.HeapInuse.
	// Mappings counts buffers newly mapped since the last reset; a miss that
	// reuses a spare maps none, so Mappings / Misses is the share of misses
	// that made a syscall.
	Mapped   int64 `json:"mapped"`
	Spare    int64 `json:"spare"`
	Mappings int64 `json:"mappings"`
}

// fetchFunc loads and decodes one segment. It returns the block, its on-disk
// payload size, and the payload buffer the block views: a buffer from the
// pool's getBuf that the frame then owns, or nil when the block holds a
// decoded copy and the fetch has given its read buffer back.
type fetchFunc func(k SegKey) (compress.IntBlock, int64, []byte, error)

// frame is one resident (or loading) segment. Its block holds the segment's
// payload once: a bit-packed block is a view over buf, the bytes the fetch
// read, which the frame owns from its fetch until it leaves the pool
// (evicted, reset or closed — never while pinned) and gives buf back.
// Every field but key, ready and (once ready is closed) blk and err is
// guarded by the pool's mu.
type frame struct {
	key        SegKey
	blk        compress.IntBlock
	buf        []byte // the payload buffer blk views; nil for a decoded copy
	bytes      int64  // compressed payload bytes (what the budget charges)
	logical    int64  // decoded size, 4 B/value (reporting only)
	pins       int
	ref        bool          // re-touched after it stopped being new: spared once by the sweep
	born       int64         // the pool's loaded count when the frame arrived (set again when its fetch completes)
	last       int64         // the pool's loaded count at arrival or at the latest hit
	prev, next *frame        // ring neighbours: next is one step older
	ready      chan struct{} // closed once blk/err are populated
	err        error
}

// Pool is the buffer manager: a byte-budgeted cache of wire-native segment
// blocks (RLE runs, packed words — never eagerly decoded value slices; the
// budget charges compressed payload bytes) with pinned-reference counting
// and a scan-resistant eviction order in which first-touch frames leave
// first.
//
// Frames sit on a ring in registration order; removal moves no other frame.
// A new frame is linked at the hand, so the sweep meets the newest frames
// first: pinned ones are passed over, the first unpinned one without its
// reference bit is evicted. A hit sets the bit only when it is not a
// correlated re-touch — when at least budget/16 bytes were loaded since the
// frame arrived — so a block touched twice by one morsel stays a first
// eviction candidate, while a block that a later query re-reads is spared
// one sweep. A scan over more data than the budget therefore cycles through
// a few frames instead of flushing the pool.
//
// A second, aging hand keeps the frames that arrived first from holding the
// pool for ever once the traffic moves on. It walks the ring from the
// oldest frame towards the newest and evicts the frame it stands on if that
// is unpinned and stale: nothing has hit it while twice the budget was
// loaded. The ring is in registration order, not hit order, so the hand
// passes over a frame that has been hit; at one that has not, it goes back
// to the oldest frame, since no frame that arrived later can be staler.
//
// Both windows come from replaying recorded acquire traces of the fused
// engine, with the pool at half the working set, through variants of this
// pool (PERFORMANCE.md, "The miss path"). A correlation window anywhere from
// budget/64 to the whole budget moved the hit ratio by at most 0.03, so
// budget/16 is a middle value, not a tuned one. The same replays compared
// aging at one, two and three budgets.
//
// Payload buffers live outside the Go heap (mapBuf, an anonymous mapping on
// unix). The garbage collector paces on the live heap, so pointer-free
// frame bytes on the heap would buy it as much headroom again, for bytes it
// never needs to collect (PERFORMANCE.md, "Memory: frames outside the Go
// heap"). A frame gives its buffer back when it leaves the pool, and a read
// buffer whose block decoded into a copy comes back at once. The pool keeps
// what comes back as spares, at most spareKeep per page-rounded length, so
// a steady-state miss reuses a buffer: no syscall, no zeroed pages. Spare
// bytes are therefore at most spareKeep times the sum of the distinct
// page-rounded payload lengths. compress.Choose never picks an encoding
// larger than plain's 4 B per value, so a colstore.BlockSize block's
// payload spans at most 65 pages of 4 KiB: at most 65 lengths, and Spare ≤
// 2 × (1+2+…+65) pages = 16.8 MiB whatever the budget. Buffers past the
// bound are unmapped once mu is released (unlock): no syscall runs under
// the lock.
//
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
	loaded  int64             // guarded by mu; payload bytes fetched since NewPool (frame age; never reset)
	frames  map[SegKey]*frame // guarded by mu
	hand    *frame            // guarded by mu; the newest frame, where the sweep starts (nil when empty)
	age     *frame            // guarded by mu; the aging hand: the next frame tested for staleness (nil when empty)
	stats   PoolStats         // guarded by mu
	fetch   fetchFunc

	spares map[int][][]byte // guarded by mu; given-back buffers by page-rounded length, at most spareKeep each
	spare  int64            // guarded by mu; bytes in spares
	mapped int64            // guarded by mu; bytes of every live buffer from getBuf
	unmapQ [][]byte         // guarded by mu; buffers past the spare bound, unmapped by unlock
	closed bool             // guarded by mu; set by close: no further acquires, no spares kept
}

// spareKeep is how many given-back buffers the pool keeps per page-rounded
// length. Under scan_bounded's traffic (a 30 MB budget at SF=1, the 13
// queries in shuffled passes after warm-up), two let 96 % of misses reuse a
// buffer; one let 84 %.
const spareKeep = 2

// pageSize is the granularity buffers are mapped and recycled at.
var pageSize = os.Getpagesize()

// pageRound rounds n up to whole pages: the length of n's buffer class.
func pageRound(n int) int { return (n + pageSize - 1) &^ (pageSize - 1) }

// errPoolClosed is what Acquire returns once the store is closed.
var errPoolClosed = errors.New("segstore: store is closed")

// NewPool returns a pool that fetches segments through fetch and keeps at
// most budget resident payload bytes (<= 0 for unbounded). Pinned frames
// are never evicted, so the budget is exceeded transiently when a query
// pins more than fits.
func NewPool(budget int64, fetch fetchFunc) *Pool {
	return &Pool{budget: budget, frames: map[SegKey]*frame{}, fetch: fetch, spares: map[int][][]byte{}}
}

// Budget returns the configured byte budget (<= 0 means unbounded).
func (p *Pool) Budget() int64 { return p.budget }

// Acquire returns the decoded segment for k, pinned until the returned
// release function is called (exactly once). Once the pool is closed it
// returns an error, never a frame.
func (p *Pool) Acquire(k SegKey) (compress.IntBlock, func(), error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, errPoolClosed
	}
	if f, ok := p.frames[k]; ok {
		f.pins++
		if p.loaded-f.born >= p.budget/16 {
			f.ref = true
		}
		f.last = p.loaded
		p.stats.Hits++
		p.mu.Unlock()
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, nil, f.err
		}
		return f.blk, func() { p.unpin(f) }, nil
	}
	f := &frame{key: k, pins: 1, born: p.loaded, last: p.loaded, ready: make(chan struct{})}
	p.frames[k] = f
	p.linkLocked(f)
	p.mu.Unlock()

	blk, bytes, buf, err := p.fetch(k)

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
	f.blk, f.bytes, f.buf = blk, bytes, buf
	f.logical = int64(blk.Len()) * 4
	p.used += bytes
	p.logical += f.logical
	p.loaded += bytes
	f.born, f.last = p.loaded, p.loaded
	p.stats.BytesRead += bytes
	if p.used > p.stats.Peak {
		p.stats.Peak = p.used
	}
	p.evictLocked()
	close(f.ready)
	p.unlock()
	return blk, func() { p.unpin(f) }, nil
}

// unpin decrements a frame's pin count. If the pool was forced over budget
// while everything was pinned, the release that makes frames evictable
// sweeps back under budget — without this, a workload whose last miss
// happened under heavy pinning would sit over budget until some future
// miss. The last release of a frame that was pinned when the pool closed
// gives its buffer back.
func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	f.pins--
	if p.closed && f.pins == 0 && p.frames[f.key] == f {
		p.forgetLocked(f)
	}
	if p.budget > 0 && p.used > p.budget {
		p.evictLocked()
	}
	p.unlock()
}

// evictLocked evicts until the pool fits its budget. Each step first tests
// the frame under the aging hand. A stale frame is evicted. Otherwise the
// aging hand moves one frame newer if the frame was hit since it arrived;
// if not, no frame that arrived after it can be staler, so the aging hand
// goes back to the oldest frame. Then the sweep takes its step. The sweep
// runs from the hand, newest frame first: a pinned frame is passed over; a
// referenced one loses its bit and is passed over (it is spared this
// sweep, not the next); any other frame is evicted. The loop
// takes at most two steps per frame, enough to clear every bit and come
// back, so it ends even when everything is pinned. holds mu.
func (p *Pool) evictLocked() {
	if p.budget <= 0 {
		return
	}
	f := p.hand
	for steps := 2 * len(p.frames); p.used > p.budget && steps > 0 && f != nil; steps-- {
		if a := p.age; a.pins == 0 && p.loaded-a.last >= 2*p.budget {
			if f == a {
				f = a.next
			}
			p.dropLocked(a)
			if p.hand == nil {
				return
			}
			continue
		} else if a.last != a.born {
			p.age = a.prev
		} else {
			p.age = p.hand.prev
		}
		next := f.next
		switch {
		case f.pins > 0:
		case f.ref:
			f.ref = false
		default:
			p.dropLocked(f)
			if p.hand == nil {
				return
			}
		}
		f = next
	}
}

// dropLocked evicts the unpinned frame f. holds mu.
func (p *Pool) dropLocked(f *frame) {
	p.stats.Evictions++
	p.forgetLocked(f)
}

// forgetLocked takes the unpinned frame f out of the pool and gives its
// payload buffer back. holds mu.
func (p *Pool) forgetLocked(f *frame) {
	p.used -= f.bytes
	p.logical -= f.logical
	p.removeLocked(f)
	p.freeLocked(f.buf)
	f.buf = nil
}

// getBuf returns an n-byte payload buffer outside the Go heap: a spare of
// n's page-rounded length when the pool keeps one, else a new mapping. Its
// contents are whatever the buffer last held; the caller overwrites all n
// bytes. The caller owns it until it gives it back through putBuf (or, for
// a frame's buffer, until the frame leaves the pool).
func (p *Pool) getBuf(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	size := pageRound(n)
	p.mu.Lock()
	if s := p.spares[size]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.spares[size] = s[:len(s)-1]
		p.spare -= int64(size)
		p.mu.Unlock()
		return b[:n], nil
	}
	p.mu.Unlock()
	b, err := mapBuf(size)
	if err != nil {
		return nil, fmt.Errorf("segstore: mapping a %d-byte payload buffer: %w", size, err)
	}
	p.mu.Lock()
	p.mapped += int64(size)
	p.stats.Mappings++
	p.mu.Unlock()
	return b[:n], nil
}

// putBuf gives back a buffer from getBuf (nil is a no-op). No slice of it
// may be used afterwards.
func (p *Pool) putBuf(b []byte) {
	p.mu.Lock()
	p.freeLocked(b)
	p.unlock()
}

// freeLocked keeps b as a spare, or queues it for unmapping when its length
// already has spareKeep spares or the pool is closed. holds mu.
func (p *Pool) freeLocked(b []byte) {
	if b == nil {
		return
	}
	b = b[:cap(b)]
	if s := p.spares[len(b)]; !p.closed && len(s) < spareKeep {
		p.spares[len(b)] = append(s, b)
		p.spare += int64(len(b))
		return
	}
	p.mapped -= int64(len(b))
	p.unmapQ = append(p.unmapQ, b)
}

// unlock releases mu, then unmaps the buffers freeLocked queued while it was
// held. holds mu (on entry).
func (p *Pool) unlock() {
	q := p.unmapQ
	p.unmapQ = nil
	p.mu.Unlock()
	for _, b := range q {
		_ = unmapBuf(b) // a whole mapping from mapBuf, given back once: cannot fail
	}
}

// linkLocked puts a new frame on the ring at the hand: just newer than the
// previous newest frame, and the first the next sweep meets. holds mu.
func (p *Pool) linkLocked(f *frame) {
	if p.hand == nil {
		f.prev, f.next = f, f
		p.age = f
	} else {
		f.prev, f.next = p.hand.prev, p.hand
		f.prev.next, f.next.prev = f, f
	}
	p.hand = f
}

// removeLocked detaches f from the map and the ring; no other frame moves.
// A hand standing on f steps on in its own direction. holds mu.
func (p *Pool) removeLocked(f *frame) {
	delete(p.frames, f.key)
	if f.next == f {
		p.hand, p.age = nil, nil
	} else {
		f.prev.next, f.next.prev = f.next, f.prev
		if p.hand == f {
			p.hand = f.next
		}
		if p.age == f {
			p.age = f.prev
		}
	}
	f.prev, f.next = nil, nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Resident = p.used
	s.ResidentLogical = p.logical
	s.Mapped = p.mapped
	s.Spare = p.spare
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
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Reset drops every unpinned frame, giving its buffer back, and zeroes the
// counters, so a following run measures a cold cache. Pinned frames (a
// concurrent query in flight) survive with their bytes still counted, and a
// fetch in flight at reset time commits its miss/bytes entry to the new
// epoch when it completes (see Acquire) — the counters stay internally
// consistent either way.
func (p *Pool) Reset() {
	p.mu.Lock()
	for _, f := range p.frames {
		if f.pins == 0 {
			p.forgetLocked(f)
		}
	}
	p.stats = PoolStats{}
	p.unlock()
}

// close refuses every later Acquire, drops every unpinned frame and unmaps
// its buffer and every spare. A frame pinned at close is dropped at its
// last release (unpin). Idempotent.
func (p *Pool) close() {
	p.mu.Lock()
	p.closed = true
	for _, f := range p.frames {
		if f.pins == 0 {
			p.forgetLocked(f)
		}
	}
	for size, s := range p.spares {
		p.mapped -= int64(size * len(s))
		p.unmapQ = append(p.unmapQ, s...)
		delete(p.spares, size)
	}
	p.spare = 0
	p.unlock()
}
