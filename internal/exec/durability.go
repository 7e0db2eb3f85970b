package exec

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/delta"
	"repro/internal/ssb"
	"repro/internal/vector"
	"repro/internal/wal"
)

// This file is the durability layer over the write path: a write-ahead log
// in front of the delta store, replay-on-open that reconstructs the exact
// pre-crash write-store state, and deletion vectors.
//
// The checkpoint is the segment footer, not a log record. Every footer the
// tuple mover writes records the fact table's segstore.Checkpoint: LogRows,
// how many logged insert rows the file has absorbed, and the sealed-side
// deletion vector. Log rows are numbered from 0 in insert order over the
// store's life, and delta row g is log row logBase+g, where logBase is the
// checkpoint's LogRows when the write store was enabled.
//
// Write-ahead rule. A pass makes the log durable up to every row it seals
// before the footer that claims them is written, so the file never holds a
// row the log could lose. After the footer lands, the log is rewritten to
// the live tail — pending inserts and live write-store tombstones — only to
// keep it short: recovery does not depend on the rewrite.
//
// Recovery. Open the store, read the footer's checkpoint, replay the log
// past it: insert rows numbered below LogRows are skipped (they are in the
// file, or were purged as deleted on the way), sealed tombstones are set
// (again, if the footer already has them), and write-store tombstones below
// LogRows are skipped with the rows they named. A crash between the footer
// and the log rewrite therefore replays a longer log to the same state, and
// un-acked records at the torn tail are dropped by the WAL's CRC scan.

// EnableWAL attaches a write-ahead log to a segment-store DB that already
// has a write store (EnableDelta) with no rows in it, replaying any existing
// log at path into the delta store and deletion vectors first. Call it
// before StartCompactor and before serving traffic; after it returns, every
// accepted Insert/Delete is group-committed to disk before acking.
func (db *DB) EnableWAL(path string, opts wal.Options) error {
	ig := db.ingest.Load()
	if ig == nil {
		return fmt.Errorf("exec: EnableWAL requires a write store (EnableDelta first)")
	}
	if db.seg == nil {
		return fmt.Errorf("exec: a write-ahead log needs a segment store: the store's footer is the log's checkpoint")
	}
	if ig.wal != nil {
		return fmt.Errorf("exec: WAL already enabled")
	}
	if ig.ws.Total() != 0 {
		return fmt.Errorf("exec: EnableWAL must run before any insert (write store holds %d rows)", ig.ws.Total())
	}

	l, recs, err := wal.Open(path, opts)
	if err != nil {
		return err
	}
	rep, err := replayWAL(recs, ig.logBase, int64(db.numRows))
	if err != nil {
		_ = l.Close()
		return err
	}
	for _, cols := range rep.inserts {
		dcols := make([]delta.Column, len(factColOrder))
		for i, name := range factColOrder {
			dcols[i] = delta.Column{Name: name, Vals: cols[i]}
		}
		batch, err := delta.NewBatch(dcols)
		if err != nil {
			_ = l.Close()
			return err
		}
		ig.ws.Append(batch)
	}

	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.wal = l
	if d := rep.delSealed; d != nil {
		if ig.delSealed != nil {
			d.Or(ig.delSealed)
		}
		if n := int64(d.Count()); n != ig.tombSealed {
			ig.delSealed, ig.tombSealed = d, n
		}
	}
	if rep.delWS != nil {
		ig.delWS = rep.delWS
		ig.tombWS = int64(rep.delWS.Count())
	}
	// Replayed deletes must bump the epoch off zero: the frozen-base guards
	// and result caches key on it, and a "no writes yet" epoch over
	// tombstoned data would let non-snapshot engines serve deleted rows.
	ig.deletes.Store(rep.deleteOps)
	return nil
}

// walReplay is the state a log's records fold into past a checkpoint.
type walReplay struct {
	inserts   [][][]int32    // pending batches' columns, in log order, from the checkpoint on
	delSealed *bitmap.Bitmap // sealed-side tombstones, length = file rows
	delWS     *bitmap.Bitmap // write-store tombstones by delta row
	deleteOps int64
}

// replayWAL folds a replayed record sequence into the write-store state past
// the footer's checkpoint: logBase is its LogRows, fileRows the fact rows
// the file holds.
func replayWAL(recs []wal.Record, logBase, fileRows int64) (*walReplay, error) {
	rep := &walReplay{}
	next := logBase // the log row the write store expects next
	for _, r := range recs {
		switch r := r.(type) {
		case wal.Insert:
			if len(r.Cols) != len(factColOrder) {
				return nil, fmt.Errorf("exec: WAL insert has %d columns, want %d", len(r.Cols), len(factColOrder))
			}
			end := r.Row + int64(len(r.Cols[0]))
			if end <= logBase {
				continue // absorbed by the file before its footer was written
			}
			if r.Row > next || (next > logBase && r.Row != next) {
				return nil, fmt.Errorf("exec: WAL insert of log rows [%d,%d) does not continue the store at log row %d — is this the store's log?", r.Row, end, next)
			}
			cols := make([][]int32, len(r.Cols))
			for i, c := range r.Cols {
				cols[i] = c[next-r.Row:] // the checkpoint may cut a batch
			}
			rep.inserts = append(rep.inserts, cols)
			next = end
		case wal.Delete:
			for _, p := range r.Sealed {
				if int64(p) >= fileRows {
					return nil, fmt.Errorf("exec: WAL delete tombstones sealed row %d past file end %d", p, fileRows)
				}
				if rep.delSealed == nil {
					rep.delSealed = bitmap.New(int(fileRows))
				}
				rep.delSealed.Set(int(p))
			}
			for _, row := range r.WS {
				if row < logBase {
					continue // the pass that absorbed the row purged it
				}
				if row >= next {
					return nil, fmt.Errorf("exec: WAL delete tombstones log row %d, which is not inserted yet (next row %d)", row, next)
				}
				if n := int(next - logBase); rep.delWS == nil {
					rep.delWS = bitmap.New(n)
				} else if rep.delWS.Len() < n {
					rep.delWS = rep.delWS.Grow(n)
				}
				rep.delWS.Set(int(row - logBase))
			}
			rep.deleteOps++
		}
	}
	return rep, nil
}

// logTail renders the write store's live tail as a fresh log: one Insert
// per pending batch and a single Delete carrying the live write-store
// tombstones, all named by log row. Callers hold ig.mu (or have exclusive
// access), so the snapshot is frontier-consistent; batch column slices are
// shared with the live store, which is safe because Rewrite encodes
// synchronously and batches are immutable.
func logTail(view *delta.View, delWS *bitmap.Bitmap, logBase int64) []wal.Record {
	var recs []wal.Record
	var del wal.Delete
	next := view.Lo()
	view.ForEach(func(b *delta.Batch, lo, hi int) bool {
		cols := make([][]int32, len(factColOrder))
		for i, name := range factColOrder {
			cols[i] = b.Col(name)[lo:hi]
		}
		recs = append(recs, wal.Insert{Row: logBase + next, Cols: cols})
		if delWS != nil {
			for g := next; g < next+int64(hi-lo); g++ {
				if g < int64(delWS.Len()) && delWS.Get(int(g)) {
					del.WS = append(del.WS, logBase+g)
				}
			}
		}
		next += int64(hi - lo)
		return true
	})
	if len(del.WS) > 0 {
		recs = append(recs, del)
	}
	return recs
}

// rewriteLog replaces the log with the write store's live tail once a
// footer covers everything older (see logTail). Callers hold compactMu.
func (ig *ingestState) rewriteLog() error {
	if ig.wal == nil {
		return nil
	}
	ig.mu.Lock()
	err := ig.wal.Rewrite(logTail(ig.ws.Snapshot(), ig.delWS, ig.logBase))
	ig.mu.Unlock()
	if err != nil {
		ig.setErr(err)
	}
	return err
}

// deletable reports whether col is a fact column whose stored value is the
// logical value, so a logical predicate evaluates directly against storage:
// an integer column that is not a remapped foreign key. A value predicate
// on a foreign key (stored as a dimension position) or a dictionary-coded
// string would silently compare against physical codes.
func deletable(col string) bool {
	c, ok := ssb.FindCol(ssb.FactCols, col)
	return ok && c.IsInt() && !isRemappedFK(col)
}

// Delete tombstones every visible row matching all the given fact-column
// predicates and returns how many it newly deleted. The operation is
// durable before it returns (WAL record + group commit) and atomic for
// readers: queries snapshotted before it see none of the tombstones,
// queries after see all of them, on every engine. Tombstoned rows stay
// physically resident until the tuple mover purges the delta side; sealed-
// side rows are masked forever (segments are immutable). At least one
// predicate is required, and only identity-valued fact columns may be
// referenced.
func (db *DB) Delete(filters []ssb.FactFilter) (int64, error) {
	ig := db.ingest.Load()
	if ig == nil {
		return 0, fmt.Errorf("exec: DB has no write store (EnableDelta first)")
	}
	if len(filters) == 0 {
		return 0, fmt.Errorf("exec: delete needs at least one predicate")
	}
	for _, f := range filters {
		if !deletable(f.Col) {
			return 0, fmt.Errorf("exec: column %q is not deletable by value (identity-valued fact columns only)", f.Col)
		}
	}
	// compactMu is held across evaluate + log + apply + commit: the frontier
	// cannot move mid-delete, and no pass can seal or purge a row on the
	// strength of a delete the log might still lose.
	ig.compactMu.Lock()
	defer ig.compactMu.Unlock()

	ig.mu.Lock()
	sdb := ig.sealed
	view := ig.ws.Snapshot()
	delSealed := ig.delSealed
	delWS := ig.delWS
	ig.mu.Unlock()

	// Both sides evaluate the conjunction with the column filter.
	pos, err := filterFact(filters, sdb.Fact.Column)
	if err != nil {
		return 0, err
	}
	match := pos.ToBitmap(sdb.numRows) // fresh: safe to mutate
	if delSealed != nil {
		match.AndNot(delSealed) // only newly dead rows are logged/counted
	}
	sealedHits := match.Count()

	chunks := deltaChunks(view)
	pos, err = filterFact(filters, func(name string) (*colstore.Column, error) {
		return deltaColumn(chunks, name), nil
	})
	if err != nil {
		return 0, err
	}
	var wsIdx []int64
	pos.ForEach(func(p int32) {
		g := view.Lo() + int64(p)
		if delWS == nil || g >= int64(delWS.Len()) || !delWS.Get(int(g)) {
			wsIdx = append(wsIdx, g)
		}
	})
	if sealedHits == 0 && len(wsIdx) == 0 {
		return 0, nil
	}

	ig.mu.Lock()
	var lsn uint64
	if l := ig.wal; l != nil {
		rec := wal.Delete{}
		match.ForEach(func(p int) { rec.Sealed = append(rec.Sealed, uint32(p)) })
		for _, g := range wsIdx {
			rec.WS = append(rec.WS, ig.logBase+g)
		}
		lsn, err = l.Append(rec)
		if err != nil {
			ig.mu.Unlock()
			ig.setErr(err)
			return 0, err
		}
	}
	if sealedHits > 0 {
		ns := bitmap.New(sdb.numRows)
		if ig.delSealed != nil {
			ns = ig.delSealed.Clone()
		}
		ns.Or(match)
		ig.delSealed = ns
		ig.tombSealed += int64(sealedHits)
	}
	if len(wsIdx) > 0 {
		n := int(ig.ws.Total())
		var nw *bitmap.Bitmap
		if ig.delWS != nil {
			nw = ig.delWS.Grow(n)
		} else {
			nw = bitmap.New(n)
		}
		for _, g := range wsIdx {
			nw.Set(int(g))
		}
		ig.delWS = nw
		ig.tombWS += int64(len(wsIdx))
	}
	ig.deletes.Add(1)
	ig.mu.Unlock()
	if l := ig.wal; l != nil {
		if err := l.Commit(lsn); err != nil {
			ig.setErr(err)
			return 0, err
		}
	}
	return int64(sealedHits) + int64(len(wsIdx)), nil
}

// filterFact evaluates a conjunction of fact predicates the way join phase
// 1 does (dimPositions): zone maps and kernels for the first predicate, the
// later ones applied only at its survivors. column resolves a fact column.
func filterFact(filters []ssb.FactFilter, column func(string) (*colstore.Column, error)) (*vector.Positions, error) {
	var pos *vector.Positions
	for _, f := range filters {
		col, err := column(f.Col)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = col.Filter(f.Pred, nil)
		} else {
			pos = col.FilterAt(f.Pred, pos, nil)
		}
	}
	return pos, nil
}

// WALStats reports the durability log's counters plus whether it is on at
// all; the zero value means no WAL (or no write store).
type WALStats struct {
	Enabled bool `json:"enabled"`
	wal.Stats
}

// WALStats returns the write-ahead log's counters.
func (db *DB) WALStats() WALStats {
	ig := db.ingest.Load()
	if ig == nil || ig.wal == nil {
		return WALStats{}
	}
	return WALStats{Enabled: true, Stats: ig.wal.Stats()}
}

// CloseWAL syncs and closes the durability log, if one is attached. Call
// after CloseDelta/FlushDelta on shutdown.
func (db *DB) CloseWAL() error {
	ig := db.ingest.Load()
	if ig == nil {
		return nil
	}
	ig.mu.Lock()
	l := ig.wal
	ig.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}
