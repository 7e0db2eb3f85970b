package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// Store is an open segment file: the parsed footer directory plus the
// buffer pool segments fault through. Zone-map queries answer from the
// directory without I/O; values are read (and CRC-verified, and decoded)
// only when a segment is first acquired, and stay resident until the pool
// evicts them.
//
// A store is no longer immutable after open: Append (append.go) grows
// tables with new segments under mu. Readers that materialized tables
// before an append keep their snapshot — their column sources hold the
// pre-append metadata, whose payload bytes are never overwritten — while
// Table calls after the append see the grown directory.
type Store struct {
	f        *os.File
	path     string
	sf       float64
	writable bool
	// recoveryNote is set when Open found a torn/corrupt tail and fell
	// back to the previous valid trailer (rows past it were discarded): the
	// human-readable account of what was discarded, kept on the store so
	// serving layers can surface it (e.g. on /stats) after the open-time
	// log line has scrolled away.
	recoveryNote string

	// mu guards the live directory (tables, cols, phys, payloadEnd).
	// Snapshots handed out by Table hold their own colMeta pointers and
	// are unaffected by later directory swaps.
	mu     sync.RWMutex
	tables map[string]*tableMeta
	order  []string
	cols   []*colMeta // by global ordinal, the pool key namespace
	// phys holds every physical segment ever written, per column ordinal,
	// indexed by pool frame id (segMeta.pid). Append-only: replaced tail
	// segments stay addressable for snapshots that still reference them.
	phys [][]segMeta
	// writeEnd is the offset just past the current trailer — where the
	// next append writes. Appends never overwrite earlier bytes (payloads,
	// superseded footers, the live footer): the previous trailer stays
	// durable until the new one is, which is what makes a torn append
	// recoverable, and a dictionary a later footer references stays where
	// it names it.
	writeEnd int64
	// appendMu serializes appends; separate from mu so readers are never
	// blocked behind append file I/O.
	appendMu sync.Mutex

	pool *Pool
}

// Open opens a segment file, validates its framing and footer checksum, and
// attaches a buffer pool with the given resident-byte budget (<= 0 for
// unbounded). The file is opened read-write when the filesystem allows, so
// the append path (Append) works; a read-only file still opens, with
// appends rejected. A bounded budget smaller than the largest single
// segment is rejected outright: the pool could never make such a segment
// resident without exceeding the budget, and a scan touching it would churn
// every other frame out on each fetch.
func Open(path string, memBudget int64) (*Store, error) {
	return OpenWith(path, OpenOptions{MemBudget: memBudget})
}

// OpenOptions parameterizes OpenWith beyond the budget.
type OpenOptions struct {
	// MemBudget is the pool's resident-byte budget (<= 0 for unbounded).
	MemBudget int64
	// Log receives open-time diagnostics that demand operator attention —
	// today, the torn-tail recovery notice. nil falls back to os.Stderr,
	// which is right for CLI tools; daemons should inject their own sink
	// (and can read Store.RecoveryNote afterwards regardless).
	Log func(msg string)
}

// OpenWith is Open with an injectable diagnostics sink: library code never
// writes to os.Stderr unless the caller left Log nil.
func OpenWith(path string, opts OpenOptions) (*Store, error) {
	writable := true
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		writable = false
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
	}
	logf := opts.Log
	if logf == nil {
		//lint:ignore nologprint this closure IS the injectable logger's documented default sink
		logf = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	s, err := open(f, path, opts.MemBudget, writable, logf)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s.writable = writable
	return s, nil
}

func open(f *os.File, path string, memBudget int64, writable bool, logf func(msg string)) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return nil, fmt.Errorf("segstore: %s: is a directory, not a segment store", path)
	}
	size := fi.Size()
	minSize := int64(headerLen) + int64(4+8+len(Magic))
	if size < minSize {
		return nil, fmt.Errorf("segstore: %s: file too short (%d bytes) to be a segment store", path, size)
	}

	head := make([]byte, headerLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("segstore: %s: reading header: %w", path, err)
	}
	switch string(head[:len(Magic)]) {
	case Magic:
	case magicV1:
		return nil, fmt.Errorf("segstore: %s: written by an earlier build (format %s, whose footer carries no recovery checkpoint) — regenerate the store with ssb-gen -out", path, magicV1)
	default:
		return nil, fmt.Errorf("segstore: %s: bad magic %q (not a segment store)", path, head[:len(Magic)])
	}
	sf := math.Float64frombits(binary.LittleEndian.Uint64(head[len(Magic):]))

	footer, contentEnd, recovered, err := locateFooter(f, path, size, int64(len(head)))
	if err != nil {
		return nil, err
	}
	var recoveryNote string
	if recovered {
		// Recovery must be loud: the discarded tail is either a torn
		// append (rows of one interrupted tuple-mover pass) or trailing
		// corruption of a committed one — either way the operator should
		// know rows past the recovered trailer are gone. The note goes to
		// the caller's sink (stderr for CLI tools) and is retained on the
		// store for serving layers to surface.
		recoveryNote = fmt.Sprintf("segstore: %s: invalid trailer at EOF; recovered the previous valid directory (%d trailing bytes discarded — a torn or corrupted append)", path, size-contentEnd)
		logf(recoveryNote)
		if writable {
			// Self-heal: drop the torn tail so the valid trailer sits at
			// EOF again and future appends start from a clean state.
			if err := f.Truncate(contentEnd); err != nil {
				return nil, fmt.Errorf("segstore: %s: trimming torn append tail: %w", path, err)
			}
		}
	}
	payloadRegionEnd := contentEnd - int64(4+8+len(Magic)) - int64(len(footer))
	metas, err := decodeFooter(footer, payloadRegionEnd, func(off int64, n int) ([]byte, error) {
		b := make([]byte, n)
		_, err := f.ReadAt(b, off)
		return b, err
	})
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}

	s := &Store{f: f, path: path, sf: sf, tables: map[string]*tableMeta{}}
	s.writeEnd = contentEnd
	s.recoveryNote = recoveryNote
	var maxPlen int64
	for _, t := range metas {
		if _, dup := s.tables[t.name]; dup {
			return nil, fmt.Errorf("segstore: %s: duplicate table %q in footer", path, t.name)
		}
		s.tables[t.name] = t
		s.order = append(s.order, t.name)
		for _, c := range t.cols {
			s.cols = append(s.cols, c)
			// Segment payloads must lie inside the payload region. The
			// footer is untrusted input: check length before offset+length
			// so a crafted plen cannot wrap the sum past the bound.
			payloadEnd := uint64(payloadRegionEnd)
			for i := range c.segs {
				seg := &c.segs[i]
				if seg.plen > payloadEnd || seg.off < uint64(len(head)) || seg.off > payloadEnd-seg.plen {
					return nil, fmt.Errorf("segstore: table %q column %q segment %d: payload [%d,+%d) outside file payload region", c.table, c.name, i, seg.off, seg.plen)
				}
				seg.pid = int32(i)
				if int64(seg.plen) > maxPlen {
					maxPlen = int64(seg.plen)
				}
			}
			s.phys = append(s.phys, append([]segMeta(nil), c.segs...))
		}
	}
	if memBudget > 0 && memBudget < maxPlen {
		return nil, fmt.Errorf("segstore: %s: memory budget %d B is smaller than the largest segment (%d B); the pool could never hold it without evicting everything else on each fetch — raise the budget to at least %d B", path, memBudget, maxPlen, maxPlen)
	}
	s.pool = NewPool(memBudget, s.loadSegment)
	return s, nil
}

// locateFooter finds the newest valid footer: normally the trailer at EOF,
// but after a torn append (crash between the payload write starting and
// the new trailer landing) the tail is garbage while every earlier byte —
// including the previous footer and trailer, which appends never overwrite
// — is intact. The backward scan finds that previous trailer, so a crash
// costs only the rows of the interrupted append, never the file. Returns
// the footer bytes, the offset just past its trailing magic, and whether
// recovery ran.
func locateFooter(f *os.File, path string, size, headLen int64) ([]byte, int64, bool, error) {
	trailerLen := int64(4 + 8 + len(Magic))
	readAt := func(end int64) ([]byte, error) {
		tail := make([]byte, trailerLen)
		if _, err := f.ReadAt(tail, end-trailerLen); err != nil {
			return nil, fmt.Errorf("segstore: %s: reading trailer: %w", path, err)
		}
		if string(tail[12:]) != Magic {
			return nil, fmt.Errorf("segstore: %s: bad trailing magic (file truncated or not a segment store)", path)
		}
		footerCRC := binary.LittleEndian.Uint32(tail[0:4])
		footerLen := binary.LittleEndian.Uint64(tail[4:12])
		footerEnd := end - trailerLen
		if footerLen > uint64(footerEnd-headLen) {
			return nil, fmt.Errorf("segstore: %s: footer length %d exceeds file size", path, footerLen)
		}
		footer := make([]byte, footerLen)
		if _, err := f.ReadAt(footer, footerEnd-int64(footerLen)); err != nil {
			return nil, fmt.Errorf("segstore: %s: reading footer: %w", path, err)
		}
		if crc := crc32.ChecksumIEEE(footer); crc != footerCRC {
			return nil, fmt.Errorf("segstore: %s: footer checksum mismatch (file corrupt): got %08x want %08x", path, crc, footerCRC)
		}
		return footer, nil
	}

	footer, eofErr := readAt(size)
	if eofErr == nil {
		return footer, size, false, nil
	}
	// Scan backward for the most recent earlier trailer. Candidates are
	// occurrences of the magic whose preceding CRC+length validate a
	// footer; a chance byte collision inside payload data is rejected by
	// the checksum.
	const chunk = 1 << 20
	for hi := size - 1; hi > headLen+trailerLen; {
		lo := hi - chunk
		if lo < headLen {
			lo = headLen
		}
		buf := make([]byte, hi-lo+int64(len(Magic)))
		if _, err := f.ReadAt(buf[:hi-lo], lo); err != nil {
			break
		}
		if hi < size {
			// Overlap so a magic spanning the chunk boundary is seen.
			if _, err := f.ReadAt(buf[hi-lo:], hi); err != nil {
				buf = buf[:hi-lo]
			}
		} else {
			buf = buf[:hi-lo]
		}
		for off := int64(len(buf)) - int64(len(Magic)); off >= 0; off-- {
			if string(buf[off:off+int64(len(Magic))]) != Magic {
				continue
			}
			end := lo + off + int64(len(Magic))
			if end >= size || end < headLen+trailerLen {
				continue // the EOF trailer already failed; need an earlier one
			}
			if footer, err := readAt(end); err == nil {
				return footer, end, true, nil
			}
		}
		hi = lo
	}
	return nil, 0, false, eofErr
}

// SF returns the scale factor recorded by the writer.
func (s *Store) SF() float64 { return s.sf }

// Path returns the file path the store was opened from.
func (s *Store) Path() string { return s.path }

// RecoveryNote returns the torn-tail recovery diagnostic from Open, or ""
// if the file opened clean. Serving layers surface it on /stats so the
// evidence of a repaired append outlives the daemon's startup log.
func (s *Store) RecoveryNote() string { return s.recoveryNote }

// Checkpoint returns the named table's recovery record as the live footer
// holds it.
func (s *Store) Checkpoint(table string) (Checkpoint, error) {
	s.mu.RLock()
	tm, ok := s.tables[table]
	s.mu.RUnlock()
	if !ok {
		return Checkpoint{}, fmt.Errorf("segstore: %s has no table %q", s.path, table)
	}
	return tm.checkpoint(), nil
}

// NumSegments returns the total live segment count across all columns.
func (s *Store) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.cols {
		n += len(c.segs)
	}
	return n
}

// Pool returns the store's buffer pool (statistics, budget).
func (s *Store) Pool() *Pool { return s.pool }

// Close gives back the buffer of every unpinned pool frame and every spare,
// then closes the underlying file. A segment pinned at Close stays usable
// until its release, which gives its buffer back; every Acquire after Close
// fails.
func (s *Store) Close() error {
	s.pool.close()
	return s.f.Close()
}

// Table materializes the named table as colstore columns backed by the
// store's buffer pool. The returned table is a snapshot of the directory at
// call time: appends that land later do not grow it (re-materialize to see
// them).
func (s *Store) Table(name string) (*colstore.Table, error) {
	s.mu.RLock()
	tm, ok := s.tables[name]
	if !ok {
		order := append([]string(nil), s.order...)
		s.mu.RUnlock()
		return nil, fmt.Errorf("segstore: %s has no table %q (tables: %v)", s.path, name, order)
	}
	cols := append([]*colMeta(nil), tm.cols...)
	s.mu.RUnlock()
	t := colstore.NewTable(name)
	for _, cm := range cols {
		t.AddColumn(colstore.NewSourcedColumn(cm.name, cm.dict, cm.sort, &colSource{store: s, meta: cm}))
	}
	return t, nil
}

// physSeg resolves one physical segment by (column ordinal, pool frame id).
func (s *Store) physSeg(col, pid int32) (segMeta, string, string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(col) >= len(s.cols) {
		return segMeta{}, "", "", fmt.Errorf("segstore: column ordinal %d out of range", col)
	}
	cm := s.cols[col]
	if int(pid) >= len(s.phys[col]) {
		return segMeta{}, "", "", fmt.Errorf("segstore: table %q column %q: segment frame %d out of range", cm.table, cm.name, pid)
	}
	return s.phys[col][pid], cm.table, cm.name, nil
}

// loadSegment is the pool's fetch function: read the payload, verify its
// CRC, decode the block. The key's Seg component is the physical frame id,
// so segments from superseded directory snapshots (a replaced partial tail)
// remain loadable for readers that still hold them.
func (s *Store) loadSegment(k SegKey) (compress.IntBlock, int64, []byte, error) {
	seg, table, name, err := s.physSeg(k.Col, k.Seg)
	if err != nil {
		return nil, 0, nil, err
	}
	blk, buf, err := s.readSeg(seg, table, name)
	if err != nil {
		return nil, 0, nil, err
	}
	return blk, int64(seg.plen), buf, nil
}

// readSeg reads and decodes one physical segment directly from the file.
// The payload is read into a buffer from the pool's getBuf, outside the Go
// heap, and its CRC checked before DecodeBlock sees it. A bit-packed block
// is a view over that buffer (DecodeBlock's contract), so readSeg returns
// the buffer with the block and the caller owns it until it gives it back
// with Pool.putBuf: a pool frame does so when it leaves the pool, the
// append path once it has decoded the old tail. RLE and plain blocks decode
// into copies, so their read buffer goes straight back for reuse and the
// returned buffer is nil; so it is on error.
func (s *Store) readSeg(seg segMeta, table, name string) (compress.IntBlock, []byte, error) {
	buf, err := s.pool.getBuf(int(seg.plen))
	if err != nil {
		return nil, nil, fmt.Errorf("segstore: table %q column %q segment %d: %w", table, name, seg.pid, err)
	}
	blk, err := s.decodeSeg(buf, seg, table, name)
	if err != nil || seg.enc != compress.BitPack {
		s.pool.putBuf(buf)
		buf = nil
	}
	return blk, buf, err
}

// decodeSeg fills payload with the segment's bytes, checks their CRC and
// decodes them.
func (s *Store) decodeSeg(payload []byte, seg segMeta, table, name string) (compress.IntBlock, error) {
	if _, err := s.f.ReadAt(payload, int64(seg.off)); err != nil {
		return nil, fmt.Errorf("segstore: table %q column %q segment %d: reading payload: %w", table, name, seg.pid, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != seg.crc {
		return nil, fmt.Errorf("segstore: table %q column %q segment %d: checksum mismatch (file corrupt): got %08x want %08x", table, name, seg.pid, crc, seg.crc)
	}
	blk, err := compress.DecodeBlock(seg.enc, int(seg.rows), payload)
	if err != nil {
		return nil, fmt.Errorf("segstore: table %q column %q segment %d: %w", table, name, seg.pid, err)
	}
	return blk, nil
}

// colSource adapts one column's footer metadata plus the shared pool to
// colstore.ColumnSource. The meta pointer is a directory snapshot:
// immutable, unaffected by appends that happen after it was taken.
type colSource struct {
	store *Store
	meta  *colMeta
}

// NumSegments implements colstore.ColumnSource.
func (c *colSource) NumSegments() int { return len(c.meta.segs) }

// SegRows implements colstore.ColumnSource.
func (c *colSource) SegRows(i int) int { return int(c.meta.segs[i].rows) }

// SegMinMax implements colstore.ColumnSource from the persisted zone map.
func (c *colSource) SegMinMax(i int) (int32, int32) {
	return c.meta.segs[i].min, c.meta.segs[i].max
}

// SegEncoding implements colstore.ColumnSource.
func (c *colSource) SegEncoding(i int) compress.Encoding { return c.meta.segs[i].enc }

// SegBytes implements colstore.ColumnSource.
func (c *colSource) SegBytes(i int) int64 { return int64(c.meta.segs[i].cbytes) }

// Acquire implements colstore.ColumnSource through the buffer pool, keyed
// by the segment's physical frame id.
func (c *colSource) Acquire(i int) (compress.IntBlock, func(), error) {
	return c.store.pool.Acquire(SegKey{Col: c.meta.ord, Seg: c.meta.segs[i].pid})
}
