package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// This file is the tuple-mover's on-disk landing: appending frozen delta
// rows to an existing segment file without disturbing readers.
//
// Layout strategy: earlier bytes are never moved or overwritten — not the
// payloads, and not the current footer or trailer. New segment payloads,
// a freshly encoded footer, its CRC, its length and the trailing magic are
// written strictly after the current trailer; the directory swap happens
// in memory, under the store lock, only after the bytes are durably on
// disk. Consequences:
//
//   - In-process readers that materialized tables before the append keep
//     scanning their snapshot: every payload offset they hold still maps
//     to the same bytes.
//   - A crash mid-append leaves the previous trailer fully intact (it
//     just no longer sits at EOF); Open's backward trailer scan
//     (locateFooter) recovers the pre-append state, losing only the rows
//     of the interrupted append, and a writable reopen trims the torn
//     tail.
//   - Each append leaves the superseded footer+trailer behind inside the
//     payload region — the space cost of crash safety. The new footer
//     references every dictionary an earlier footer already holds instead
//     of re-encoding it (format.go), so what goes dead per tuple-mover
//     pass is one dictionary-free directory, and the referenced
//     dictionaries stay live for as long as a footer names them.
//   - Every footer carries the appended table's Checkpoint, written in the
//     same commit as the rows it accounts for, so the recovery record can
//     never disagree with the file: a torn append loses the rows and the
//     checkpoint together.
//
// A column whose last live segment is partial cannot simply gain another
// segment after it — positional addressing requires every segment but the
// last to hold exactly colstore.BlockSize rows — so the append merges the
// old tail's rows with the incoming values and re-chunks. The replacement
// segments are written at fresh offsets and get fresh pool frame ids; the
// superseded tail stays on disk (and in phys) as dead-but-addressable space
// for snapshots that still reference it.
//
// An appended 64K-row block may encode larger than a tight pool budget
// (unsorted live writes compress worse than the generator's sorted base).
// That is deliberately not an error — the pool tolerates over-budget
// frames by churning the rest, which degrades performance but never loses
// data; failing the tuple mover here would strand accepted rows instead.

// AppendColumn carries one column's new rows for Append. Values are in the
// column's physical representation (dictionary codes for string columns).
type AppendColumn struct {
	Name string
	Vals []int32
}

// Append appends rows to the named table: every column of the table must be
// present in cols with the same number of values. Sort kinds are re-derived
// (a primary sort survives only if the appended run provably preserves it).
// The new footer records ck as the table's Checkpoint, whose deletion vector
// must fit the grown table. On success the store's live directory includes
// the new segments — Table calls made after Append see them, snapshots taken
// before do not.
func (s *Store) Append(table string, cols []AppendColumn, ck Checkpoint) error {
	if !s.writable {
		return fmt.Errorf("segstore: %s: opened read-only; appends need a writable file", s.path)
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	byName := make(map[string][]int32, len(cols))
	n := -1
	for _, c := range cols {
		if _, dup := byName[c.Name]; dup {
			return fmt.Errorf("segstore: append has duplicate column %q", c.Name)
		}
		if n < 0 {
			n = len(c.Vals)
		} else if len(c.Vals) != n {
			return fmt.Errorf("segstore: append column %q has %d rows, others have %d", c.Name, len(c.Vals), n)
		}
		byName[c.Name] = c.Vals
	}
	if n < 1 {
		return fmt.Errorf("segstore: append needs at least one row")
	}

	oldCols, pidBase, cursor, err := s.appendTarget(table)
	if err != nil {
		return err
	}
	if len(byName) != len(oldCols) {
		return fmt.Errorf("segstore: append has %d columns, table %q has %d", len(byName), table, len(oldCols))
	}

	// Encode the new segments per column, merging each partial tail.
	var payload []byte
	var seg []byte
	newCols := make([]*colMeta, len(oldCols))
	newPhys := make([][]segMeta, len(oldCols))
	for i, cm := range oldCols {
		vals, ok := byName[cm.name]
		if !ok {
			return fmt.Errorf("segstore: append missing column %q of table %q", cm.name, table)
		}
		keep := cm.segs
		var merged []int32
		if ns := len(cm.segs); ns > 0 && int(cm.segs[ns-1].rows) < colstore.BlockSize {
			tail := cm.segs[ns-1]
			blk, buf, err := s.readSeg(tail, cm.table, cm.name)
			if err != nil {
				return fmt.Errorf("segstore: merging partial tail: %w", err)
			}
			merged = blk.AppendTo(make([]int32, 0, int(tail.rows)+len(vals)))
			s.pool.putBuf(buf)
			keep = cm.segs[:ns-1]
		}
		prevMax, hasPrev := int32(0), false
		if len(keep) > 0 {
			prevMax, hasPrev = keep[len(keep)-1].max, true
		}
		merged = append(merged, vals...)

		nc := &colMeta{
			table:  cm.table,
			name:   cm.name,
			sort:   colstore.AppendSortKind(cm.sort, hasPrev, prevMax, merged),
			dict:   cm.dict,
			dictAt: cm.dictAt,
			ord:    cm.ord,
			segs:   append([]segMeta(nil), keep...),
		}
		nextPid := pidBase[i]
		for off := 0; off < len(merged); off += colstore.BlockSize {
			end := off + colstore.BlockSize
			if end > len(merged) {
				end = len(merged)
			}
			blk := compress.Choose(merged[off:end])
			seg = compress.AppendBlock(blk, seg[:0])
			mn, mx := blk.MinMax()
			nc.segs = append(nc.segs, segMeta{
				off:    cursor,
				plen:   uint64(len(seg)),
				cbytes: uint64(blk.CompressedBytes()),
				enc:    blk.Encoding(),
				rows:   uint32(blk.Len()),
				min:    mn,
				max:    mx,
				crc:    crc32.ChecksumIEEE(seg),
				pid:    nextPid,
			})
			nextPid++
			cursor += uint64(len(seg))
			payload = append(payload, seg...)
		}
		newCols[i] = nc
		newPhys[i] = nc.segs[len(keep):]
	}
	return s.commit(&tableMeta{name: table, cols: newCols}, ck, newPhys, payload)
}

// SetCheckpoint records ck as the named table's Checkpoint with no new
// rows: a footer and trailer alone, committed like an append. The write path
// uses it when deletes are all that changed since the last footer.
func (s *Store) SetCheckpoint(table string, ck Checkpoint) error {
	if !s.writable {
		return fmt.Errorf("segstore: %s: opened read-only; checkpoints need a writable file", s.path)
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	cols, _, _, err := s.appendTarget(table)
	if err != nil {
		return err
	}
	return s.commit(&tableMeta{name: table, cols: cols}, ck, nil, nil)
}

// appendTarget snapshots the named table's live columns, the next pool frame
// id of each, and the offset the next append writes at. Callers hold
// appendMu, so the directory cannot change between here and their commit.
func (s *Store) appendTarget(table string) ([]*colMeta, []int32, uint64, error) {
	s.mu.RLock()
	tm, ok := s.tables[table]
	if !ok {
		s.mu.RUnlock()
		return nil, nil, 0, fmt.Errorf("segstore: %s has no table %q", s.path, table)
	}
	cols := append([]*colMeta(nil), tm.cols...)
	cursor := uint64(s.writeEnd)
	pidBase := make([]int32, len(cols))
	for i, cm := range cols {
		pidBase[i] = int32(len(s.phys[cm.ord]))
	}
	s.mu.RUnlock()

	// Single-writer fence. The store assumes one writing process; a second
	// writable open of the same file (ssb-gen -append racing a live
	// ssb-serve -ingest) would append at a stale offset and overwrite the
	// other writer's bytes. Appends move EOF, so a size that disagrees
	// with our in-memory frontier means someone else wrote — fail loudly
	// instead of corrupting.
	if fi, err := s.f.Stat(); err != nil {
		return nil, nil, 0, fmt.Errorf("segstore: %s: stat before append: %w", s.path, err)
	} else if fi.Size() != int64(cursor) {
		return nil, nil, 0, fmt.Errorf("segstore: %s: file size %d does not match this store's frontier %d — another process appended to it; the segment store supports a single writer", s.path, fi.Size(), cursor)
	}
	return cols, pidBase, cursor, nil
}

// commit makes tm (with ck recorded on it) the table's live directory entry:
// payload, the post-append footer and its trailer are written after the
// current trailer and synced, then the directory swaps. newPhys holds each
// column's new physical segments, parallel to tm.cols (nil when none).
func (s *Store) commit(tm *tableMeta, ck Checkpoint, newPhys [][]segMeta, payload []byte) error {
	if err := tm.setCheckpoint(ck); err != nil {
		return err
	}
	// Render the post-append directory: the new entry plus every other
	// table unchanged.
	s.mu.RLock()
	metas := make([]*tableMeta, 0, len(s.order))
	for _, name := range s.order {
		t := s.tables[name]
		if name == tm.name {
			t = tm
		}
		metas = append(metas, t)
	}
	writeAt := s.writeEnd
	s.mu.RUnlock()
	footer, placed := encodeFooter(metas)

	// Two-sync commit protocol: payloads and footer must be durable BEFORE
	// the trailer that makes them discoverable. With a single sync the
	// kernel may persist the (CRC-valid) trailer pages but not the payload
	// pages; a crash then yields a file whose EOF trailer validates while
	// its segments are garbage — and the backward-scan recovery never runs.
	// Writing the trailer only after the first sync means a crash can only
	// leave a missing/torn trailer, exactly the state locateFooter recovers.
	body := append(payload, footer...)
	if _, err := s.f.WriteAt(body, writeAt); err != nil {
		return fmt.Errorf("segstore: %s: writing append: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("segstore: %s: syncing append payload: %w", s.path, err)
	}
	trailer := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(footer))
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(footer)))
	trailer = append(trailer, Magic...)
	if _, err := s.f.WriteAt(trailer, writeAt+int64(len(body))); err != nil {
		return fmt.Errorf("segstore: %s: writing append trailer: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("segstore: %s: syncing append trailer: %w", s.path, err)
	}

	// Durable on disk: swap the live directory, and let later footers
	// reference the dictionaries this one wrote inline.
	footerAt := uint64(writeAt) + uint64(len(payload))
	s.mu.Lock()
	for _, p := range placed {
		p.at.off += footerAt
		p.col.dictAt = p.at
	}
	s.tables[tm.name] = tm
	for i, nc := range tm.cols {
		s.cols[nc.ord] = nc
		if newPhys != nil {
			s.phys[nc.ord] = append(s.phys[nc.ord], newPhys[i]...)
		}
	}
	s.writeEnd = writeAt + int64(len(body)+len(trailer))
	s.mu.Unlock()
	s.pool.noteAppend(int64(len(payload)))
	return nil
}
