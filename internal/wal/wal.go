// Package wal is the durability layer of the write path: an append-only,
// CRC32-framed record log that sits in front of the in-memory delta store
// (internal/delta). Every accepted insert or delete is framed, sequenced and
// fsynced before the caller's ack, so a crash at any point after the ack can
// lose nothing: reopening the store replays the log and reconstructs the
// exact delta state.
//
// The log holds two record kinds:
//
//   - Insert: one accepted batch, all fact columns in canonical order, and
//     the log row number of its first row. Log rows are numbered from 0 in
//     insert order over the store's whole life; the segment store's footer
//     records how many of them the file has absorbed, so replay skips every
//     row numbered below that.
//   - Delete: one accepted delete — tombstoned sealed positions plus
//     tombstoned write-store rows, named by log row number.
//
// The log carries no checkpoint of its own: the segment footer is the
// checkpoint (segstore.Checkpoint). Replaying a record the footer already
// covers is harmless — its rows are skipped, its sealed tombstones are set
// again — so the log is rewritten to the live tail after a compaction only
// to keep it short.
//
// Framing is [u32 len][u8 kind][u64 lsn][payload][u32 crc32] with the CRC
// over kind+lsn+payload. LSNs are strictly monotonic within a file. Replay
// stops at the first torn or corrupt frame and truncates the file there —
// a torn tail is the expected shape of a crash mid-append and is never an
// error. Decoding is fully bounds-checked and never panics on arbitrary
// bytes (FuzzWALRecord pins that).
//
// Commit implements group commit: an Append writes the frame into the OS
// buffer immediately; Commit(lsn) blocks until that LSN is durable. The
// first committer becomes the group leader, waits a configurable window for
// more writers to pile on (or until a byte threshold forces an early
// flush), then issues one File.Sync covering every frame written so far.
// Concurrent insert streams therefore share fsyncs instead of paying one
// each.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"encoding/binary"
)

const (
	magic = "SSBWAL02"
	// magicV1 begins a log written before the segment footer became the
	// checkpoint (its records carry anchors this format no longer has).
	magicV1 = "SSBWAL01"
	// maxFrame bounds a single record's framed size; anything larger in a
	// length field is corruption, not data.
	maxFrame = 1 << 28
	// frame overhead: u32 len + u32 crc around the body, body holds
	// kind (1) + lsn (8) before the payload.
	frameBodyMin = 9

	// Kinds 1 (base) and 4 (checkpoint) are retired with magicV1.
	kindInsert byte = 2
	kindDelete byte = 3
)

// record caps: limits well above anything the write path produces, so a
// corrupt count field fails validation instead of driving an allocation.
const (
	maxCols = 1 << 10
	maxRow  = int64(1) << 62
)

// Record is one replayable log entry: Insert or Delete.
type Record interface {
	kind() byte
	appendPayload(dst []byte) []byte
}

// Insert is one accepted insert batch: the log row number of its first row
// and the fact columns in the canonical physical order (the same order the
// delta store carries them).
type Insert struct {
	Row  int64
	Cols [][]int32
}

// Delete is one accepted delete: positions tombstoned in the sealed store
// plus the log row numbers of write-store rows tombstoned in the delta.
type Delete struct {
	Sealed []uint32
	WS     []int64
}

func (Insert) kind() byte { return kindInsert }
func (Delete) kind() byte { return kindDelete }

func (r Insert) appendPayload(dst []byte) []byte {
	rows := 0
	if len(r.Cols) > 0 {
		rows = len(r.Cols[0])
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Row))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Cols)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for _, col := range r.Cols {
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	}
	return dst
}

func (r Delete) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Sealed)))
	for _, p := range r.Sealed {
		dst = binary.LittleEndian.AppendUint32(dst, p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.WS)))
	for _, i := range r.WS {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
	}
	return dst
}

// cursor is a bounds-checked little-endian reader over a payload. Every
// accessor records overrun in bad instead of panicking; callers check ok()
// once at the end.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// ok reports a clean, fully consumed payload.
func (c *cursor) ok() bool { return !c.bad && c.off == len(c.b) }

var errCorrupt = errors.New("wal: corrupt record")

func decodePayload(kind byte, payload []byte) (Record, error) {
	c := &cursor{b: payload}
	switch kind {
	case kindInsert:
		row := int64(c.u64())
		nCols := int64(c.u32())
		nRows := int64(c.u32())
		if c.bad || row < 0 || row > maxRow || nCols == 0 || nCols > maxCols || nRows == 0 ||
			int64(len(payload)-c.off) != nCols*nRows*4 {
			return nil, errCorrupt
		}
		r := Insert{Row: row, Cols: make([][]int32, nCols)}
		for i := range r.Cols {
			col := make([]int32, nRows)
			for j := range col {
				col[j] = int32(c.u32())
			}
			r.Cols[i] = col
		}
		if !c.ok() {
			return nil, errCorrupt
		}
		return r, nil
	case kindDelete:
		nSealed := int64(c.u32())
		if c.bad || nSealed*4 > int64(len(payload)-c.off) {
			return nil, errCorrupt
		}
		r := Delete{}
		if nSealed > 0 {
			r.Sealed = make([]uint32, nSealed)
			for i := range r.Sealed {
				r.Sealed[i] = c.u32()
			}
		}
		nWS := int64(c.u32())
		if c.bad || nWS*8 != int64(len(payload)-c.off) {
			return nil, errCorrupt
		}
		if nWS > 0 {
			r.WS = make([]int64, nWS)
			for i := range r.WS {
				r.WS[i] = int64(c.u64())
			}
		}
		if !c.ok() {
			return nil, errCorrupt
		}
		return r, nil
	default:
		return nil, errCorrupt
	}
}

// appendFrame frames one record with the given LSN onto dst.
func appendFrame(dst []byte, r Record, lsn uint64) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	bodyAt := len(dst)
	dst = append(dst, r.kind())
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = r.appendPayload(dst)
	body := dst[bodyAt:]
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// decodeFrame decodes one frame from data, returning the record, its LSN
// and the framed byte count. Any inconsistency — short data, implausible
// length, CRC mismatch, unknown kind, malformed payload — returns an error;
// replay treats every error as the torn tail.
func decodeFrame(data []byte) (Record, uint64, int, error) {
	if len(data) < 4 {
		return nil, 0, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(data)
	if n < frameBodyMin || n > maxFrame {
		return nil, 0, 0, errCorrupt
	}
	total := 4 + int(n) + 4
	if len(data) < total {
		return nil, 0, 0, io.ErrUnexpectedEOF
	}
	body := data[4 : 4+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4+int(n):]) {
		return nil, 0, 0, errCorrupt
	}
	lsn := binary.LittleEndian.Uint64(body[1:9])
	rec, err := decodePayload(body[0], body[9:])
	if err != nil {
		return nil, 0, 0, err
	}
	return rec, lsn, total, nil
}

// Options configures group commit.
type Options struct {
	// Window is how long a commit leader waits for more writers before
	// issuing the group's fsync. Zero syncs immediately (each group still
	// covers every frame written by the time the sync runs).
	Window time.Duration
}

// flushBytes cuts a commit leader's window short once this many unsynced
// bytes have accumulated.
const flushBytes = 1 << 20

// Stats is a snapshot of the log's counters.
type Stats struct {
	// Appends counts records appended; Commits counts Commit calls;
	// Syncs counts fsyncs issued. Group commit shows as Commits > Syncs.
	Appends int64 `json:"appends"`
	Commits int64 `json:"commits"`
	Syncs   int64 `json:"syncs"`
	// Rewrites counts log rewrites (compaction truncation points).
	Rewrites int64 `json:"rewrites"`
	// Replayed is the record count recovered at Open; TornBytes the bytes
	// discarded from the tail (0 for a clean shutdown).
	Replayed  int64 `json:"replayed"`
	TornBytes int64 `json:"torn_bytes"`
	// LastLSN is the newest assigned LSN, DurableLSN the newest fsynced
	// one; Bytes is the current file size.
	LastLSN    uint64 `json:"last_lsn"`
	DurableLSN uint64 `json:"durable_lsn"`
	Bytes      int64  `json:"bytes"`
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// Log is an open write-ahead log. Append/Commit are safe for concurrent
// use; Rewrite requires the caller to exclude concurrent Appends (the
// ingest layer holds its own mutex across both).
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File // guarded by mu (sync leaders copy it out under the lock)
	path string
	opts Options
	enc  []byte // guarded by mu; reused frame-encoding buffer

	nextLSN    uint64 // guarded by mu
	writtenLSN uint64 // guarded by mu
	durableLSN uint64 // guarded by mu
	syncing    bool   // guarded by mu
	unsynced   int64  // guarded by mu
	bigWrite   chan struct{}
	err        error // guarded by mu
	// syncDir fsyncs the log's directory after a rewrite's rename; a field
	// so a test can make it fail.
	syncDir func(dir string) error

	// guarded by mu
	appends, commits, syncs, rewrites, replayed, tornBytes, bytes int64
}

// Open opens (creating if absent) the log at path and replays it: every
// intact record in order, stopping at the first torn or corrupt frame and
// truncating the file there. The returned records are the durable history
// the caller must reduce into its in-memory state. holds mu vacuously: the
// Log is unpublished until Open returns, so this goroutine has exclusive
// access without locking.
func Open(path string, opts Options) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	l := &Log{f: f, path: path, opts: opts, bigWrite: make(chan struct{}, 1), syncDir: syncDir}
	l.cond = sync.NewCond(&l.mu)
	if len(data) < len(magic) {
		// New log, or a crash before the header became durable (nothing
		// was ever acked from it) — start fresh.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(int64(len(magic)), io.SeekStart); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		l.bytes = int64(len(magic))
		l.nextLSN = 1
		return l, nil, nil
	}
	switch string(data[:len(magic)]) {
	case magic:
	case magicV1:
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: %s was written by an earlier build, whose logs and segment stores this one cannot read: regenerate the store with ssb-gen -out and remove the log", path)
	default:
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: %s is not a WAL file", path)
	}
	var recs []Record
	off := len(magic)
	good := off
	var prev uint64
	for off < len(data) {
		rec, lsn, n, err := decodeFrame(data[off:])
		if err != nil || lsn <= prev {
			break
		}
		recs = append(recs, rec)
		prev = lsn
		off += n
		good = off
	}
	if good < len(data) {
		l.tornBytes = int64(len(data) - good)
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	l.bytes = int64(good)
	l.replayed = int64(len(recs))
	l.nextLSN = prev + 1
	l.writtenLSN = prev
	l.durableLSN = prev
	return l, recs, nil
}

// Append frames r, assigns it the next LSN and writes it into the OS
// buffer. The record is NOT durable until a Commit at or past the returned
// LSN succeeds.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	lsn := l.nextLSN
	frame := appendFrame(l.enc[:0], r, lsn)
	l.enc = frame[:0]
	if _, err := l.f.Write(frame); err != nil {
		l.fail(err)
		return 0, err
	}
	l.nextLSN++
	l.writtenLSN = lsn
	l.appends++
	l.bytes += int64(len(frame))
	l.unsynced += int64(len(frame))
	if l.unsynced >= flushBytes {
		select {
		case l.bigWrite <- struct{}{}:
		default:
		}
	}
	return lsn, nil
}

// Commit blocks until every record up to and including lsn is durable. The
// first blocked committer leads the group: it waits the configured window
// (cut short when flushBytes accumulate), then issues one fsync covering
// all frames written so far and wakes everyone it covered.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	l.commits++
	for l.durableLSN < lsn && l.err == nil {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		if w := l.opts.Window; w > 0 {
			l.mu.Unlock()
			t := time.NewTimer(w)
			select {
			case <-t.C:
			case <-l.bigWrite:
				t.Stop()
			}
			l.mu.Lock()
		}
		target := l.writtenLSN
		f := l.f
		l.unsynced = 0
		select {
		case <-l.bigWrite: // drop a stale threshold signal
		default:
		}
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.fail(err)
		} else {
			l.syncs++
			if target > l.durableLSN {
				l.durableLSN = target
			}
		}
		l.cond.Broadcast()
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// fail latches the first error; the log is unusable afterwards. holds mu.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// Rewrite atomically replaces the log's contents with recs (temp file +
// fsync + rename). LSNs keep counting up
// across the rewrite, so committers blocked on pre-rewrite LSNs observe
// their state durable (the rewrite contains it by construction) and return.
// The caller must exclude concurrent Appends.
func (l *Log) Rewrite(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	buf := append(l.enc[:0], magic...)
	next := l.nextLSN
	for _, r := range recs {
		buf = appendFrame(buf, r, next)
		next++
	}
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.fail(err)
		return err
	}
	if _, err := nf.Write(buf); err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		_ = nf.Close()
		os.Remove(tmp)
		l.fail(err)
		return err
	}
	if err := l.syncDir(filepath.Dir(l.path)); err != nil {
		// The new log is in place under l.path, but its rename may not be
		// durable, and with it every record it holds: fail the log rather
		// than ack anything further into it.
		_ = nf.Close()
		err = fmt.Errorf("wal: %s: syncing the directory after a rewrite: %w", l.path, err)
		l.fail(err)
		return err
	}
	// The old file was just renamed over; its descriptor's close verdict
	// cannot affect anything durable.
	_ = l.f.Close()
	l.f = nf
	l.enc = buf[:0]
	l.nextLSN = next
	l.writtenLSN = next - 1
	l.durableLSN = next - 1
	l.unsynced = 0
	l.bytes = int64(len(buf))
	l.rewrites++
	l.syncs++
	l.cond.Broadcast()
	return nil
}

// syncDir fsyncs a directory, which makes a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync forces an immediate fsync of everything written so far, outside any
// group: records appended before it are durable when it returns nil, and
// a later Commit of any of them returns at once. A failed fsync latches the
// log's error, as a failed group commit does.
func (l *Log) Sync() error {
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	target := l.writtenLSN
	f := l.f
	l.unsynced = 0
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	if err != nil {
		l.fail(err)
	} else {
		l.syncs++
		if target > l.durableLSN {
			l.durableLSN = target
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		if err == ErrClosed {
			return nil
		}
		return err
	}
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.err = ErrClosed
	l.cond.Broadcast()
	l.mu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:    l.appends,
		Commits:    l.commits,
		Syncs:      l.syncs,
		Rewrites:   l.rewrites,
		Replayed:   l.replayed,
		TornBytes:  l.tornBytes,
		LastLSN:    l.writtenLSN,
		DurableLSN: l.durableLSN,
		Bytes:      l.bytes,
	}
}
