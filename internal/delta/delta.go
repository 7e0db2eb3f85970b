// Package delta is the write-optimized store (WS) of the C-Store-style
// WS/RS split: an in-memory, append-only sequence of columnar row batches
// that absorbs inserts while the read-optimized compressed segment store
// serves scans. Rows live here from the moment a client inserts them until
// the tuple mover (the compactor in internal/exec) freezes a prefix into
// compressed on-disk segments; a snapshot taken at query start sees one
// consistent frontier — every row is in exactly one of the two stores.
//
// Batches are immutable once appended; inserts smaller than CoalesceRows are
// merged into a new batch with their predecessor (Append), so the batch count
// a reader pays for follows rows, not insert calls. A View holds references
// to the batches it covers, so the store can drop compacted batches immediately
// (Seal) while in-flight queries keep reading their snapshot; the garbage
// collector reclaims a batch when the last snapshot referencing it
// finishes. Every batch records per-column min/max, so zone-map pruning
// works on unflushed data exactly as it does on sealed segments.
package delta

import (
	"fmt"
	"slices"
	"sync"
)

// Column is one attribute of an insert batch: all values are int32 in the
// fact table's physical representation (foreign keys remapped to dimension
// positions, strings as dictionary codes).
type Column struct {
	Name string
	Vals []int32
}

// Batch is an immutable columnar chunk of inserted rows. Construction takes
// ownership of the value slices; callers must not mutate them afterwards.
type Batch struct {
	n      int
	names  []string
	cols   [][]int32
	mins   []int32
	maxs   []int32
	byName map[string]int
	bytes  int64
}

// NewBatch builds a batch over equal-length columns, computing each
// column's running min/max (the batch's zone map).
func NewBatch(cols []Column) (*Batch, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("delta: batch has no columns")
	}
	n := len(cols[0].Vals)
	if n == 0 {
		return nil, fmt.Errorf("delta: batch has no rows")
	}
	b := &Batch{n: n, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if len(c.Vals) != n {
			return nil, fmt.Errorf("delta: column %q has %d rows, batch has %d", c.Name, len(c.Vals), n)
		}
		if _, dup := b.byName[c.Name]; dup {
			return nil, fmt.Errorf("delta: duplicate column %q in batch", c.Name)
		}
		mn, mx := c.Vals[0], c.Vals[0]
		for _, v := range c.Vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		b.byName[c.Name] = len(b.cols)
		b.names = append(b.names, c.Name)
		b.cols = append(b.cols, c.Vals)
		b.mins = append(b.mins, mn)
		b.maxs = append(b.maxs, mx)
		b.bytes += int64(n) * 4
	}
	return b, nil
}

// concat returns a new batch holding b's rows followed by o's. Both must
// have the same columns in the same order.
func (b *Batch) concat(o *Batch) *Batch {
	m := &Batch{n: b.n + o.n, names: b.names, byName: b.byName, bytes: b.bytes + o.bytes,
		cols: make([][]int32, len(b.cols)), mins: make([]int32, len(b.cols)), maxs: make([]int32, len(b.cols))}
	for i := range b.cols {
		m.cols[i] = append(append(make([]int32, 0, m.n), b.cols[i]...), o.cols[i]...)
		m.mins[i], m.maxs[i] = min(b.mins[i], o.mins[i]), max(b.maxs[i], o.maxs[i])
	}
	return m
}

// Len returns the batch row count.
func (b *Batch) Len() int { return b.n }

// Bytes returns the batch's resident memory (4 bytes per value).
func (b *Batch) Bytes() int64 { return b.bytes }

// Col returns the named column's values, or nil when absent.
func (b *Batch) Col(name string) []int32 {
	i, ok := b.byName[name]
	if !ok {
		return nil
	}
	return b.cols[i]
}

// MinMax returns the named column's zone-map bounds.
func (b *Batch) MinMax(name string) (mn, mx int32, ok bool) {
	i, present := b.byName[name]
	if !present {
		return 0, 0, false
	}
	return b.mins[i], b.maxs[i], true
}

// Store is the write-optimized store: batches in arrival order, addressed
// by a global row index that never rewinds. Rows [0, sealed) have been
// migrated to the read-optimized store and are no longer served from here;
// rows [sealed, total) are the live delta. All methods are safe for
// concurrent use, but the cross-store consistency of (sealed segments,
// delta watermark) is the caller's responsibility: internal/exec takes its
// snapshot and flips the frontier under one lock.
type Store struct {
	mu      sync.Mutex
	batches []*Batch
	offs    []int64 // global row index of each batch's first row
	sealed  int64
	total   int64
	bytes   int64 // resident bytes of retained batches
}

// NewStore returns an empty write store.
func NewStore() *Store { return &Store{} }

// CoalesceRows is the batch size below which Append merges a batch into its
// predecessor instead of keeping it apart. A scan pays a fixed cost per
// batch (zone-map checks, column lookups, a cache miss or three), so a store
// fed a row or ten at a time would otherwise cost readers — and the tuple
// mover — by the number of inserts instead of the number of rows.
const CoalesceRows = 256

// Append adds a batch and returns the new total (rows ever inserted). A
// batch shorter than CoalesceRows arriving behind another such batch is
// merged with it: the pair is replaced by one new batch holding both, so
// runs of small inserts grow into batches of at least CoalesceRows rows.
// Batches stay immutable and snapshots unaffected — the replacement lands in
// a fresh backing array, and a view taken earlier keeps the shorter batch it
// saw.
func (s *Store) Append(b *Batch) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += int64(b.Len())
	if n := len(s.batches); n > 0 && b.Len() < CoalesceRows {
		if last := s.batches[n-1]; last.Len() < CoalesceRows && slices.Equal(last.names, b.names) {
			merged := last.concat(b)
			s.batches = append(s.batches[:n-1:n-1], merged)
			s.bytes += merged.Bytes() - last.Bytes()
			return s.total
		}
	}
	s.batches = append(s.batches, b)
	s.offs = append(s.offs, s.total-int64(b.Len()))
	s.bytes += b.Bytes()
	return s.total
}

// Total returns the number of rows ever inserted (the store's epoch: it
// increases on every insert and never decreases, so it versions the visible
// data for result caching).
func (s *Store) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Sealed returns the rows migrated to the read-optimized store.
func (s *Store) Sealed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// Pending returns the live delta row count (total - sealed).
func (s *Store) Pending() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - s.sealed
}

// Bytes returns the resident memory of retained batches. Wholly sealed
// batches are dropped by Seal, so this tracks the live delta plus any
// partially sealed batch still referenced.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Snapshot returns a view of the live delta rows [sealed, total). The view
// keeps its batches alive independently of later Seal calls.
func (s *Store) Snapshot() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &View{
		batches: s.batches,
		offs:    s.offs,
		lo:      s.sealed,
		hi:      s.total,
	}
}

// Seal advances the sealed watermark by n rows and drops batches that fall
// entirely below it. Views snapshotted earlier still reference the dropped
// batches and keep working.
func (s *Store) Seal(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed += n
	if s.sealed > s.total {
		panic(fmt.Sprintf("delta: sealed watermark %d past total %d", s.sealed, s.total))
	}
	drop := 0
	for drop < len(s.batches) && s.offs[drop]+int64(s.batches[drop].Len()) <= s.sealed {
		s.bytes -= s.batches[drop].Bytes()
		drop++
	}
	if drop > 0 {
		// Fresh slices so the retained tail does not pin the dropped
		// batches through the old backing array.
		s.batches = append([]*Batch(nil), s.batches[drop:]...)
		s.offs = append([]int64(nil), s.offs[drop:]...)
	}
}

// View is a consistent snapshot of a delta row range. It is immutable and
// safe to share across goroutines.
type View struct {
	batches []*Batch
	offs    []int64
	lo, hi  int64
}

// Len returns the number of visible rows.
func (v *View) Len() int64 { return v.hi - v.lo }

// Lo returns the global row index of the view's first visible row. Callers
// that address rows in the store's global index space (deletion vectors,
// WAL replay) anchor their cursors here: the first row ForEach yields has
// global index Lo, and subsequent rows follow contiguously.
func (v *View) Lo() int64 { return v.lo }

// Bytes returns the resident memory of the batches the view touches — the
// term admission control charges a query for scanning the write store.
func (v *View) Bytes() int64 {
	var n int64
	v.ForEach(func(b *Batch, _, _ int) bool {
		n += b.Bytes()
		return true
	})
	return n
}

// ForEach walks the visible batches in row order, passing each batch with
// its visible batch-local range [lo, hi). fn returns false to stop early.
func (v *View) ForEach(fn func(b *Batch, lo, hi int) bool) {
	for i, b := range v.batches {
		start, end := v.offs[i], v.offs[i]+int64(b.Len())
		if end <= v.lo {
			continue
		}
		if start >= v.hi {
			return
		}
		lo, hi := 0, b.Len()
		if start < v.lo {
			lo = int(v.lo - start)
		}
		if end > v.hi {
			hi = int(v.hi - start)
		}
		if !fn(b, lo, hi) {
			return
		}
	}
}

// Gather appends the named column's values for the first n visible rows to
// dst. It panics if a covered batch lacks the column (insert translation
// populates every physical fact column) or if n exceeds the view.
func (v *View) Gather(name string, n int64, dst []int32) []int32 {
	if n > v.Len() {
		panic(fmt.Sprintf("delta: gather of %d rows from a %d-row view", n, v.Len()))
	}
	remaining := n
	v.ForEach(func(b *Batch, lo, hi int) bool {
		if remaining <= 0 {
			return false
		}
		vals := b.Col(name)
		if vals == nil {
			panic(fmt.Sprintf("delta: batch lacks column %q", name))
		}
		take := int64(hi - lo)
		if take > remaining {
			take = remaining
		}
		dst = append(dst, vals[lo:lo+int(take)]...)
		remaining -= take
		return true
	})
	return dst
}
