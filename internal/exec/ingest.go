package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/delta"
	"repro/internal/segstore"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// This file is the write path of the C-Store WS/RS split (paper Section 2:
// "C-Store [has] a write-optimized store absorbing inserts and a tuple
// mover migrating batches into the read-optimized store"):
//
//   - Insert translates logical lineorder rows into the physical fact
//     representation (foreign keys remapped to dimension positions, strings
//     to dictionary codes) and appends them to an in-memory delta.Store.
//   - The tuple mover (compactOnce) freezes block-aligned prefixes of the
//     delta into compress.Choose-encoded 64K-row segments and lands them on
//     the read-optimized store: segstore.Append for file-backed DBs,
//     colstore.AppendedColumn for in-memory ones. Each pass publishes a new
//     immutable sealed *DB; the previous one keeps serving queries that
//     already snapshotted it.
//   - Every query resolves one consistent (sealed DB, delta view) pair at
//     start (snapshotForRead): the frontier flip in compactOnce happens
//     under the same lock, so a row is visible from exactly one side, and a
//     query started before an insert can never observe it while one started
//     after always does.

// ErrWriteStoreFull is returned by Insert when the write store holds more
// resident bytes than the configured cap; callers should retry after the
// tuple mover catches up (the serving layer surfaces it as backpressure).
var ErrWriteStoreFull = errors.New("exec: write store is over its memory cap; retry after compaction")

// ingestState is the write half of a DB: the delta store, the current
// sealed snapshot, and the tuple-mover machinery.
type ingestState struct {
	// mu guards the (sealed, ws watermark) frontier: snapshotForRead reads
	// both and compactOnce flips both under it.
	mu     sync.Mutex
	sealed *DB
	ws     *delta.Store

	maxBytes int64
	// keyPos maps each remapped foreign-key column's logical key (1-based,
	// minus one) to its physical dimension position.
	keyPos map[string][]int32

	// compactMu serializes tuple-mover passes (background loop, CompactNow,
	// Flush).
	compactMu   sync.Mutex
	compactions atomic.Int64
	lastErr     atomic.Value // error

	startOnce sync.Once
	stopOnce  sync.Once
	kick      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// wal is the durability log (nil until EnableWAL). Inserts and deletes
	// append under mu — so log order matches apply order — and group-commit
	// outside it. logBase is the log row number of delta row 0: the fact
	// checkpoint's LogRows when the write store was enabled (durability.go).
	wal     *wal.Log
	logBase int64
	// ckptDel is the sealed deletion vector the live footer records (guarded
	// by compactMu); a flush whose delSealed has moved past it writes a
	// footer for the deletes alone.
	ckptDel *bitmap.Bitmap
	// testHookSealed, when set, runs after a pass's footer is durable and
	// before the log is rewritten: the crash harness kills the process there.
	testHookSealed func()

	// delSealed/delWS are the deletion vectors, split at the frontier like
	// the data itself. Both are immutable snapshots swapped under mu:
	// delSealed always has exactly sealed.numRows bits (grown in the same
	// critical section that flips the frontier); delWS is indexed by
	// delta-global row and may be shorter than the current total — rows
	// inserted after the last delete are implicitly live. nil means no
	// tombstones on that side, which keeps the read path zero-cost until the
	// first delete.
	delSealed *bitmap.Bitmap
	delWS     *bitmap.Bitmap
	// deletes counts accepted delete operations that tombstoned at least one
	// row; it contributes to Epoch so caches and frozen-base guards see
	// deletes as data changes. tombSealed/tombWS count live tombstones per
	// side (under mu; compaction purges WS tombstones as it drops the rows).
	deletes    atomic.Int64
	tombSealed int64
	tombWS     int64
}

// errBox wraps an error for atomic.Value (which cannot store a bare nil).
type errBox struct{ err error }

// setErr records a tuple-mover failure for Flush/DeltaStats to surface.
func (ig *ingestState) setErr(err error) { ig.lastErr.Store(errBox{err}) }

// clearErr forgets a recorded failure (a later full flush succeeded, so
// nothing is stranded anymore).
func (ig *ingestState) clearErr() { ig.lastErr.Store(errBox{}) }

// err returns the recorded tuple-mover failure, if any.
func (ig *ingestState) err() error {
	if v := ig.lastErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// EnableDelta attaches a write-optimized store to the DB. maxWSBytes caps
// the delta's resident memory (0 = unbounded): past it Insert returns
// ErrWriteStoreFull until compaction drains the backlog. The dimension
// tables must carry their key columns (custkey/suppkey/partkey) so logical
// foreign keys can be remapped to physical positions — BuildDB always
// stores them; segment files written before the write path existed lack
// them and are rejected with a regeneration hint. Call before serving
// queries: the write store is published atomically, so a concurrent Epoch
// sees it absent or empty, but the rest of enabling (EnableWAL's replay) is
// not synchronized against queries.
func (db *DB) EnableDelta(maxWSBytes int64) error {
	if db.ingest.Load() != nil {
		return nil
	}
	keyPos := map[string][]int32{}
	for _, dim := range positionKeyed {
		keyCol, err := db.Dims[dim].Column(dim.FactFK())
		if err != nil {
			return fmt.Errorf("exec: %v table has no %s column; this store predates the write path — regenerate it with ssb-gen", dim, dim.FactFK())
		}
		keys := keyCol.DecodeAll(nil, nil)
		pos := make([]int32, len(keys))
		for i := range pos {
			pos[i] = -1
		}
		for p, k := range keys {
			if k < 1 || int(k) > len(keys) || pos[k-1] >= 0 {
				return fmt.Errorf("exec: %v key column is not a dense 1..%d permutation (key %d at position %d)", dim, len(keys), k, p)
			}
			pos[k-1] = int32(p)
		}
		keyPos[dim.FactFK()] = pos
	}
	ig := &ingestState{
		sealed:    db,
		ws:        delta.NewStore(),
		maxBytes:  maxWSBytes,
		keyPos:    keyPos,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		logBase:   db.ckpt.LogRows,
		delSealed: db.ckpt.Deleted,
		ckptDel:   db.ckpt.Deleted,
	}
	if d := db.ckpt.Deleted; d != nil {
		ig.tombSealed = int64(d.Count())
	}
	db.ingest.Store(ig)
	return nil
}

// tombstones is the deletion-vector snapshot a query executes against:
// deleted rows on the sealed side (bit = sealed row index) and the write
// store side (bit = delta-global row index). Either side may be nil — no
// tombstones there — and both bitmaps are immutable snapshots, safe to read
// for the whole query.
type tombstones struct {
	sealed *bitmap.Bitmap
	ws     *bitmap.Bitmap
}

// snapshotForRead resolves the frontier a query executes against: the
// sealed DB, the live delta view, the deletion vectors and the epoch they
// add up to, all read under one lock — so the epoch names exactly the rows
// the query scans, however inserts and deletes interleave with it. Returns
// (db, nil, the footer's deletion vector, 0) for DBs without a write store.
func (db *DB) snapshotForRead() (*DB, *delta.View, tombstones, int64) {
	ig := db.ingest.Load()
	if ig == nil {
		return db, nil, tombstones{sealed: db.ckpt.Deleted}, 0
	}
	ig.mu.Lock()
	sdb := ig.sealed
	view := ig.ws.Snapshot()
	del := tombstones{sealed: ig.delSealed, ws: ig.delWS}
	epoch := ig.ws.Total() + ig.deletes.Load()
	ig.mu.Unlock()
	return sdb, view, del, epoch
}

// Epoch versions the visible data: rows inserted plus delete operations
// applied since the write store was enabled (replayed log records count).
// It bumps on every accepted insert and every delete that tombstones at
// least one row (compaction moves rows between stores without
// changing what queries see, so it does not bump). Zero for read-only DBs —
// and forever zero when no write ever lands, keeping epoch-keyed result
// caches exact on frozen data.
func (db *DB) Epoch() int64 {
	ig := db.ingest.Load()
	if ig == nil {
		return 0
	}
	return ig.ws.Total() + ig.deletes.Load()
}

// Insert validates, translates and appends a batch of logical lineorder
// rows to the write store, returning the new epoch. Foreign keys must
// reference existing dimension rows; the two string attributes must use
// values already in the frozen dictionaries (the write store never grows a
// dictionary). Safe for concurrent use with queries and other inserters.
func (db *DB) Insert(b *ssb.Lineorders) (int64, error) {
	ig := db.ingest.Load()
	if ig == nil {
		return 0, fmt.Errorf("exec: DB has no write store (EnableDelta first)")
	}
	if err := b.CheckLens(); err != nil {
		return 0, err
	}
	n := b.Len()
	if n == 0 {
		return ig.ws.Total() + ig.deletes.Load(), nil
	}
	if ig.maxBytes > 0 && ig.ws.Bytes() > ig.maxBytes {
		return 0, ErrWriteStoreFull
	}

	// Physical columns in factColOrder — the same positional order the WAL's
	// insert records and replay use.
	cols := make([][]int32, len(ssb.FactCols))
	for j, c := range ssb.FactCols {
		if !c.IsInt() {
			dict := db.Fact.MustColumn(c.Name).Dict
			cols[j] = make([]int32, n)
			for i, v := range *c.Str(b) {
				code, ok := dict.Code(v)
				if !ok {
					return 0, fmt.Errorf("exec: insert row %d: %s %q not in the frozen dictionary", i, c.Name, v)
				}
				cols[j][i] = code
			}
			continue
		}
		vals := *c.Int(b)
		pos := ig.keyPos[c.Name]
		if pos == nil {
			cols[j] = append([]int32(nil), vals...)
			continue
		}
		cols[j] = make([]int32, n)
		for i, k := range vals {
			if k < 1 || int(k) > len(pos) {
				return 0, fmt.Errorf("exec: insert row %d: %s %d outside [1,%d]", i, c.Name, k, len(pos))
			}
			cols[j][i] = pos[k-1]
		}
	}
	for i, k := range b.OrderDate {
		if _, ok := db.dateByKey[k]; !ok {
			return 0, fmt.Errorf("exec: insert row %d: orderdate %d is not a datekey of the date dimension", i, k)
		}
	}
	dcols := make([]delta.Column, len(cols))
	for i := range cols {
		dcols[i] = delta.Column{Name: factColOrder[i], Vals: cols[i]}
	}
	batch, err := delta.NewBatch(dcols)
	if err != nil {
		return 0, err
	}
	// WAL append and delta append happen under one lock so the log's record
	// order equals the store's row order; the group commit — the fsync wait —
	// happens outside it, so concurrent inserters coalesce into one sync
	// without serializing their translation work.
	ig.mu.Lock()
	var lsn uint64
	if ig.wal != nil {
		lsn, err = ig.wal.Append(wal.Insert{Row: ig.logBase + ig.ws.Total(), Cols: cols})
		if err != nil {
			ig.mu.Unlock()
			ig.setErr(err)
			return 0, err
		}
	}
	total := ig.ws.Append(batch)
	epoch := total + ig.deletes.Load()
	ig.mu.Unlock()
	if ig.wal != nil {
		if err := ig.wal.Commit(lsn); err != nil {
			ig.setErr(err)
			return 0, err
		}
	}
	if ig.ws.Pending() >= int64(colstore.BlockSize) {
		select {
		case ig.kick <- struct{}{}:
		default:
		}
	}
	return epoch, nil
}

// factColOrder is the canonical physical column order of the fact table —
// the schema's, identical to BuildDB's layout and to Fact.ColumnNames().
// Insert batches and the WAL's positional insert records both use it, which
// is what lets replay rebuild batches without storing column names per
// record.
var factColOrder = func() []string {
	names := make([]string, len(ssb.FactCols))
	for i, c := range ssb.FactCols {
		names[i] = c.Name
	}
	return names
}()

// CompactNow runs one tuple-mover pass, freezing the block-aligned prefix
// of the delta (first topping the sealed store's partial tail block up to
// 64K rows, then whole 64K blocks) into encoded segments. Returns the rows
// sealed; zero when fewer than BlockSize rows are pending.
func (db *DB) CompactNow() (int64, error) { return db.compactOnce(false) }

// FlushDelta seals every pending delta row — including a final partial
// block — into the read-optimized store, and leaves the store's footer
// recording every sealed-side delete: the shutdown path that guarantees
// zero unflushed-delta loss for file-backed stores, log or no log. A
// successful full flush clears any earlier background-compaction failure (a
// transient disk error that killed the background mover strands nothing
// once the flush lands every row); only a flush that itself fails reports
// an error.
func (db *DB) FlushDelta() error {
	ig := db.ingest.Load()
	if ig == nil {
		return nil
	}
	if _, err := db.compactOnce(true); err != nil {
		return err
	}
	ig.clearErr()
	return nil
}

// compactOnce is the tuple mover: gather the prefix, encode and land it on
// the read store under a footer recording the pass's checkpoint, then flip
// the frontier and rewrite the log. Queries snapshotted before the flip
// keep their sealed DB and their delta view (the view retains the batches);
// queries after see the grown sealed store and the trimmed delta.
func (db *DB) compactOnce(all bool) (int64, error) {
	ig := db.ingest.Load()
	if ig == nil {
		return 0, nil
	}
	ig.compactMu.Lock()
	defer ig.compactMu.Unlock()

	ig.mu.Lock()
	sdb := ig.sealed
	view := ig.ws.Snapshot()
	// Both deletion vectors are stable for the whole pass: deletes serialize
	// behind compactMu, so no bit can appear mid-move.
	delWS, delSealed := ig.delWS, ig.delSealed
	var logged uint64 // the newest log record holding rows this pass may seal
	if ig.wal != nil {
		logged = ig.wal.Stats().LastLSN
	}
	ig.mu.Unlock()

	var sealN, survivors int64
	if view.Len() > 0 {
		gap := int64((colstore.BlockSize - sdb.numRows%colstore.BlockSize) % colstore.BlockSize)
		sealN, survivors = planSeal(view, delWS, gap, all)
	}
	ck := segstore.Checkpoint{LogRows: ig.logBase + view.Lo() + sealN, Deleted: delSealed}
	if sealN == 0 {
		if !all || db.seg == nil || delSealed == ig.ckptDel {
			return 0, nil
		}
		// A flush with nothing to seal but deletes the footer lacks: give
		// them a footer of their own, so the store holds them without the log.
		if err := db.seg.SetCheckpoint(segFactName, ck); err != nil {
			ig.setErr(err)
			return 0, err
		}
		ig.ckptDel = delSealed
		return 0, ig.rewriteLog()
	}

	names := sdb.Fact.ColumnNames()
	gathered := make([][]int32, len(names))
	for i, name := range names {
		gathered[i] = gatherLive(view, delWS, name, sealN, survivors)
	}

	var newFact *colstore.Table
	if db.seg != nil {
		// Write-ahead: every row this pass seals must be durable in the log
		// before the footer that claims it is.
		if ig.wal != nil {
			if err := ig.wal.Commit(logged); err != nil {
				ig.setErr(err)
				return 0, err
			}
		}
		cols := make([]segstore.AppendColumn, len(names))
		for i, name := range names {
			cols[i] = segstore.AppendColumn{Name: name, Vals: gathered[i]}
		}
		if err := db.seg.Append(segFactName, cols, ck); err != nil {
			ig.setErr(err)
			return 0, err
		}
		t, err := db.seg.Table(segFactName)
		if err != nil {
			ig.setErr(err)
			return 0, err
		}
		newFact = t
	} else {
		newFact = colstore.NewTable(sdb.Fact.Name)
		for i, name := range names {
			newFact.AddColumn(colstore.AppendedColumn(sdb.Fact.MustColumn(name), gathered[i], db.Compressed))
		}
	}

	nd := sdb.sealedCopy(newFact, sdb.numRows+int(survivors))

	ig.mu.Lock()
	ig.sealed = nd
	ig.ws.Seal(sealN)
	// The sealed deletion vector tracks sealed.numRows exactly: grow it in
	// the same critical section that publishes the new sealed store, so no
	// reader ever pairs a grown store with a short vector. Tombstoned delta
	// rows were dropped during the move — never copied to the file — so the
	// new bits stay zero and the WS tombstone count shrinks by what the pass
	// consumed.
	if ig.delSealed != nil {
		ig.delSealed = ig.delSealed.Grow(nd.numRows)
	}
	ig.ckptDel = ig.delSealed
	ig.tombWS -= sealN - survivors
	ig.mu.Unlock()
	ig.compactions.Add(1)

	if ig.testHookSealed != nil {
		ig.testHookSealed()
	}
	if err := ig.rewriteLog(); err != nil {
		return 0, err
	}
	return sealN, nil
}

// planSeal picks how many pending delta rows one tuple-mover pass consumes.
// Tombstoned rows are dropped during the move, so block alignment of the
// fact file is governed by the survivor count: the pass consumes the
// shortest prefix whose survivors first top the sealed store's partial tail
// block up to BlockSize and then fill whole blocks, extended over any
// tombstoned rows immediately after (consuming them is free). all=true
// consumes everything, partial tail included.
func planSeal(view *delta.View, delWS *bitmap.Bitmap, gap int64, all bool) (sealN, survivors int64) {
	pending := view.Len()
	live := pending
	if delWS != nil {
		lo := view.Lo()
		for g := lo; g < lo+pending; g++ {
			if g < int64(delWS.Len()) && delWS.Get(int(g)) {
				live--
			}
		}
	}
	if all {
		return pending, live
	}
	if pending < int64(colstore.BlockSize) || live < gap {
		return 0, 0
	}
	target := gap + (live-gap)/int64(colstore.BlockSize)*int64(colstore.BlockSize)
	if target == 0 {
		return 0, 0
	}
	if delWS == nil {
		return target, target
	}
	// Walk rows until target survivors are consumed, then swallow the
	// immediately following tombstoned run.
	lo := view.Lo()
	var seen int64
	n := int64(0)
	for ; seen < target; n++ {
		g := lo + n
		if g >= int64(delWS.Len()) || !delWS.Get(int(g)) {
			seen++
		}
	}
	for n < pending {
		g := lo + n
		if g < int64(delWS.Len()) && delWS.Get(int(g)) {
			n++
			continue
		}
		break
	}
	return n, target
}

// gatherLive collects the named column's values for the live rows among the
// first sealN visible rows of the view — the tuple mover's gather with
// tombstone purging. survivors sizes the result exactly.
func gatherLive(view *delta.View, delWS *bitmap.Bitmap, name string, sealN, survivors int64) []int32 {
	if delWS == nil {
		return view.Gather(name, sealN, make([]int32, 0, survivors))
	}
	out := make([]int32, 0, survivors)
	next := view.Lo()
	remaining := sealN
	view.ForEach(func(b *delta.Batch, lo, hi int) bool {
		if remaining <= 0 {
			return false
		}
		vals := b.Col(name)
		if vals == nil {
			panic(fmt.Sprintf("exec: delta batch lacks column %q", name))
		}
		base := next - int64(lo)
		take := int64(hi - lo)
		if take > remaining {
			take = remaining
			hi = lo + int(take)
		}
		for r := lo; r < hi; r++ {
			g := base + int64(r)
			if g < int64(delWS.Len()) && delWS.Get(int(g)) {
				continue
			}
			out = append(out, vals[r])
		}
		next += int64(hi - lo)
		remaining -= take
		return true
	})
	return out
}

// StartCompactor launches the background tuple mover: it wakes when a full
// block of delta rows is pending (Insert kicks it) and seals everything
// block-aligned. Idempotent. Stop with CloseDelta.
func (db *DB) StartCompactor() {
	ig := db.ingest.Load()
	if ig == nil {
		return
	}
	ig.startOnce.Do(func() {
		ig.wg.Add(1)
		go func() {
			defer ig.wg.Done()
			for {
				select {
				case <-ig.done:
					return
				case <-ig.kick:
					for {
						n, err := db.compactOnce(false)
						if err != nil {
							// Recorded by compactOnce; stop moving tuples.
							// Queries keep serving from WS + the last good
							// sealed store, and Flush surfaces the error.
							return
						}
						if n == 0 {
							break
						}
					}
				}
			}
		}()
	})
}

// CloseDelta stops the background compactor (if running) and waits for any
// in-flight pass. It does not flush; call FlushDelta first when the
// remaining rows must land on disk.
func (db *DB) CloseDelta() {
	ig := db.ingest.Load()
	if ig == nil {
		return
	}
	ig.stopOnce.Do(func() { close(ig.done) })
	ig.wg.Wait()
}

// DeltaStats describes the write store's state.
type DeltaStats struct {
	// Enabled reports whether the DB has a write store at all.
	Enabled bool `json:"enabled"`
	// Epoch is the data version (DB.Epoch): rows inserted plus delete
	// operations applied since the write store was enabled.
	Epoch int64 `json:"epoch"`
	// PendingRows/PendingBytes are the live, unsealed delta.
	PendingRows  int64 `json:"pending_rows"`
	PendingBytes int64 `json:"pending_bytes"`
	// SealedRows counts delta rows the tuple mover has migrated;
	// Compactions the mover passes that did it.
	SealedRows  int64 `json:"sealed_rows"`
	Compactions int64 `json:"compactions"`
	// TotalRows is the physical row count a query starting now would scan
	// (tombstoned rows still resident count until compaction purges them).
	TotalRows int64 `json:"total_rows"`
	// Deletes counts accepted delete operations; TombstonesSealed and
	// TombstonesWS the live tombstoned rows on each side of the frontier.
	Deletes          int64 `json:"deletes"`
	TombstonesSealed int64 `json:"tombstones_sealed"`
	TombstonesWS     int64 `json:"tombstones_ws"`
	// Err is the last tuple-mover failure ("" when healthy).
	Err string `json:"err,omitempty"`
}

// DeltaStats returns the write store's counters (zero value when disabled).
func (db *DB) DeltaStats() DeltaStats {
	ig := db.ingest.Load()
	if ig == nil {
		return DeltaStats{}
	}
	// Everything derived from the frontier is read under ig.mu — the same
	// lock compactOnce flips (sealed, watermark) under — so TotalRows can
	// never transiently drop by a compaction's worth of rows mid-read.
	ig.mu.Lock()
	st := DeltaStats{
		Enabled:          true,
		Epoch:            ig.ws.Total() + ig.deletes.Load(),
		PendingRows:      ig.ws.Pending(),
		PendingBytes:     ig.ws.Bytes(),
		SealedRows:       ig.ws.Sealed(),
		TotalRows:        int64(ig.sealed.numRows) + ig.ws.Pending(),
		Deletes:          ig.deletes.Load(),
		TombstonesSealed: ig.tombSealed,
		TombstonesWS:     ig.tombWS,
	}
	ig.mu.Unlock()
	st.Compactions = ig.compactions.Load()
	if err := ig.err(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// BatchShape returns the dimension space insert batches against this DB
// must draw from (seeded generators use it to produce valid rows).
func (db *DB) BatchShape() (ssb.BatchShape, error) {
	sh := ssb.BatchShape{
		Customers: db.Dims[ssb.DimCustomer].NumRows(),
		Suppliers: db.Dims[ssb.DimSupplier].NumRows(),
		Parts:     db.Dims[ssb.DimPart].NumRows(),
		DateKeys:  db.dateKeys,
	}
	if d := db.Fact.MustColumn("ordpriority").Dict; d != nil {
		sh.OrdPriorities = d.Values()
	}
	if d := db.Fact.MustColumn("shipmode").Dict; d != nil {
		sh.ShipModes = d.Values()
	}
	return sh, sh.Validate()
}
