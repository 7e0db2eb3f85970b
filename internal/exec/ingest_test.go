package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/ssb"
)

// earlyMatCfg is the early-materialization configuration used by the ingest
// tests (the row-at-a-time engine over compressed storage).
var earlyMatCfg = Config{BlockIter: true, Compression: true}

// ingestEngines is the engine matrix every epoch is checked across.
func ingestEngines() []struct {
	label string
	cfg   Config
} {
	w1, w8 := FusedOpt, FusedOpt
	w1.Workers, w8.Workers = 1, 8
	nkFull, nkW8, nkEM := FullOpt, w8, earlyMatCfg
	nkFull.NoKernels, nkW8.NoKernels, nkEM.NoKernels = true, true, true
	return []struct {
		label string
		cfg   Config
	}{
		{"per-probe", FullOpt},
		{"fused w1", w1},
		{"fused w8", w8},
		{"early-mat", earlyMatCfg},
		{"per-probe kernels-off", nkFull},
		{"fused w8 kernels-off", nkW8},
		{"early-mat kernels-off", nkEM},
	}
}

// TestIngestDifferential is the write-path differential harness: seeded
// random queries interleave with seeded insert batches, value-predicate
// deletes, and tuple-mover passes, and at every epoch each engine —
// in-memory and segment-backed, per-probe, fused at 1 and 8 workers,
// early-materialized — must agree bit-for-bit with the brute-force
// reference rebuilt from scratch over the base dataset plus every batch
// inserted (and every row deleted) so far. Rounds are sized to cover the
// interesting frontiers: queries answered purely from the write store, a
// compaction that tops the partial tail block up to 64K rows and seals
// whole blocks, epochs mixing sealed-and-delta, deletes landing before and
// after a seal (so tombstones are both purged by the mover and masked on
// the frozen side), and a final flush that leaves a partial tail again.
func TestIngestDifferential(t *testing.T) {
	data := ssb.Generate(0.005)
	refData := ssb.Generate(0.005) // independent copy: the rebuilt-from-scratch oracle

	mem := BuildDB(data, true)
	segDB, store := segBackedDB(t, mem, data.SF, 0)
	for _, db := range []*DB{mem, segDB} {
		if err := db.EnableDelta(0); err != nil {
			t.Fatalf("EnableDelta: %v", err)
		}
	}
	shape, err := mem.BatchShape()
	if err != nil {
		t.Fatalf("BatchShape: %v", err)
	}

	// applyDelete drives the same conjunction through both engines and the
	// oracle; all three must tombstone/remove the same number of rows.
	applyDelete := func(ri int, filters []ssb.FactFilter) {
		t.Helper()
		want := refData.DeleteWhere(filters)
		for _, eng := range []struct {
			label string
			db    *DB
		}{{"mem", mem}, {"seg", segDB}} {
			got, err := eng.db.Delete(filters)
			if err != nil {
				t.Fatalf("round %d: Delete(%s): %v", ri, eng.label, err)
			}
			if got != want {
				t.Fatalf("round %d: Delete(%s) tombstoned %d rows, oracle removed %d", ri, eng.label, got, want)
			}
		}
	}

	rounds := []struct {
		insert  int
		split   int // rows per Insert call (0 = the round's rows as one batch)
		compact bool
		preDel  []ssb.FactFilter // applied after insert, before any compaction
		postDel []ssb.FactFilter // applied after compaction
	}{
		// Round 0: small delta; compaction is a no-op (< 64K pending). The
		// post-delete spans base sealed rows AND live delta rows.
		{3000, 0, true, nil, []ssb.FactFilter{{Col: "quantity", Pred: compress.Between(48, 50)}}},
		// Round 1: larger delta served straight from the WS.
		{40000, 0, false, nil, nil},
		// Round 2: delete BEFORE a real seal — the mover must purge the WS
		// tombstones while topping the tail block up to 64K.
		{25000, 0, true, []ssb.FactFilter{{Col: "tax", Pred: compress.Eq(7)}}, nil},
		// Round 3: tiny batch on a sealed store; zero-match delete is a no-op.
		{7, 0, false, nil, []ssb.FactFilter{{Col: "orderkey", Pred: compress.Eq(-1)}}},
		// Round 4: sub-block round; multi-predicate conjunction after the seal.
		{10000, 0, true, nil, []ssb.FactFilter{
			{Col: "discount", Pred: compress.Eq(0)},
			{Col: "quantity", Pred: compress.Le(10)},
		}},
		// Round 5: a trickle — 37 rows per insert, which the write store
		// coalesces into a handful of batches behind round 3's 7 rows — with a
		// delete landing inside the merged batches.
		{1900, 37, false, nil, []ssb.FactFilter{{Col: "quantity", Pred: compress.Between(30, 33)}}},
	}
	if space, _ := mem.groupSpace(wideGroupPlans()[0]); space <= denseLimit {
		t.Fatalf("wide-group plan spans %d groups at this scale factor: dense, so no round would hash-aggregate", space)
	}
	const queriesPerRound = 6
	compacted := false
	for ri, round := range rounds {
		per := round.split
		if per == 0 {
			per = round.insert
		}
		for done := 0; done < round.insert; done += per {
			batch, err := ssb.RandBatch(int64(1000+ri+1000*done), min(per, round.insert-done), shape)
			if err != nil {
				t.Fatalf("round %d: RandBatch: %v", ri, err)
			}
			refData.AppendBatch(batch)
			for _, db := range []*DB{mem, segDB} {
				if _, err := db.Insert(batch); err != nil {
					t.Fatalf("round %d: Insert: %v", ri, err)
				}
			}
		}
		if round.preDel != nil {
			applyDelete(ri, round.preDel)
		}
		if round.compact {
			nMem, err := mem.CompactNow()
			if err != nil {
				t.Fatalf("round %d: CompactNow(mem): %v", ri, err)
			}
			nSeg, err := segDB.CompactNow()
			if err != nil {
				t.Fatalf("round %d: CompactNow(seg): %v", ri, err)
			}
			if nMem != nSeg {
				t.Fatalf("round %d: compaction sealed %d rows in-memory but %d segment-backed", ri, nMem, nSeg)
			}
			if nMem > 0 {
				compacted = true
			}
		}
		if round.postDel != nil {
			applyDelete(ri, round.postDel)
		}
		// Physical NumRows includes masked (tombstoned) sealed rows, so the
		// row-count invariant is checked through the visibility layer.
		countQ := &ssb.Query{ID: fmt.Sprintf("count-%d", ri), Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}
		if got, want := mem.Run(countQ, FullOpt, nil).Rows[0].AggValues()[0], int64(refData.NumLineorders()); got != want {
			t.Fatalf("round %d: visible count(*) %d, want %d", ri, got, want)
		}

		queries := make([]*ssb.Query, 0, queriesPerRound+2)
		for qi := 0; qi < queriesPerRound; qi++ {
			queries = append(queries, ssb.RandQuery(int64(9000+100*ri+qi)))
		}
		// Ungrouped MIN/MAX exercises merge's empty-side identities (a
		// partial with no qualifying row must not contribute its zeros);
		// the impossible filter the all-partials-empty rendering; the
		// wide-group plan the hash-keyed aggregator fed by sealed blocks and
		// delta morsels alike.
		queries = append(queries, wideGroupPlans()[0],
			&ssb.Query{ID: fmt.Sprintf("minmax-%d", ri), Aggs: []ssb.AggSpec{
				{Func: ssb.FuncMin, Expr: ssb.AggExpr{ColA: "revenue", Op: '-', ColB: "supplycost"}},
				{Func: ssb.FuncMax, Expr: ssb.AggExpr{ColA: "quantity"}},
			}},
			&ssb.Query{ID: fmt.Sprintf("empty-%d", ri), Aggs: []ssb.AggSpec{
				{Func: ssb.FuncMin, Expr: ssb.AggExpr{ColA: "revenue"}},
				{Func: ssb.FuncCount},
			}, DimFilters: []ssb.DimFilter{
				{Dim: ssb.DimCustomer, Col: "nation", Op: ssb.QueryByID("3.2").DimFilters[0].Op, StrA: "NO SUCH NATION"},
			}})

		for qi, q := range queries {
			want := ssb.Reference(refData, q)
			checkMergeLaw(t, mem, q, want, int64(100*ri+qi))
			var stW1, stW8, stSeg iosim.Stats
			for _, eng := range ingestEngines() {
				var st *iosim.Stats
				switch eng.label {
				case "fused w1":
					st = &stW1
				case "fused w8":
					st = &stW8
				}
				if got := mem.Run(q, eng.cfg, st); !got.Equal(want) {
					t.Errorf("round %d %s [mem %s]: diverges from rebuilt reference\nSQL: %s\n%s",
						ri, q.ID, eng.label, q.SQL(), want.Diff(got))
				}
				st = nil
				if eng.label == "fused w8" {
					st = &stSeg
				}
				if got := segDB.Run(q, eng.cfg, st); !got.Equal(want) {
					t.Errorf("round %d %s [seg %s]: diverges from rebuilt reference\nSQL: %s\n%s",
						ri, q.ID, eng.label, q.SQL(), want.Diff(got))
				}
			}
			if stW1 != stW8 {
				t.Errorf("round %d %s: fused I/O accounting depends on worker count with a live delta: %+v vs %+v",
					ri, q.ID, stW1, stW8)
			}
			if stSeg != stW8 {
				t.Errorf("round %d %s: segment-backed fused logical I/O %+v differs from in-memory %+v",
					ri, q.ID, stSeg, stW8)
			}
		}
	}
	if !compacted {
		t.Fatal("no round actually compacted — the test never exercised the tuple mover")
	}
	if ps := store.Pool().Stats(); ps.Appends == 0 {
		t.Error("segment store recorded no append passes")
	}

	// Drain everything (leaving a partial tail block again) and re-check a
	// fixed query set with an empty write store.
	for _, db := range []*DB{mem, segDB} {
		if err := db.FlushDelta(); err != nil {
			t.Fatalf("FlushDelta: %v", err)
		}
		if ds := db.DeltaStats(); ds.PendingRows != 0 {
			t.Fatalf("FlushDelta left %d pending rows", ds.PendingRows)
		}
	}
	for _, q := range ssb.Queries() {
		want := ssb.Reference(refData, q)
		for _, eng := range ingestEngines() {
			if got := mem.Run(q, eng.cfg, nil); !got.Equal(want) {
				t.Errorf("post-flush Q%s [mem %s]: diverges\n%s", q.ID, eng.label, want.Diff(got))
			}
			if got := segDB.Run(q, eng.cfg, nil); !got.Equal(want) {
				t.Errorf("post-flush Q%s [seg %s]: diverges\n%s", q.ID, eng.label, want.Diff(got))
			}
		}
	}
	if p := store.Pool().PinnedFrames(); p != 0 {
		t.Errorf("%d frames still pinned after the differential run", p)
	}
}

// checkMergeLaw is the property the unified sealed+delta scan (and the
// morsel workers before it) rests on: partial aggregates merge
// commutatively and associatively. It deals the current snapshot's morsels
// — sealed fact blocks and delta batches alike — in random order across
// 1..8 partial aggregators, some forced onto the hash representation so
// merges cross the dense/hash boundary in both directions, combines the
// partials pairwise in random order, and requires the rendered result to be
// bit-identical to the single-partial run and to the reference.
func checkMergeLaw(t *testing.T, db *DB, q *ssb.Query, want *ssb.Result, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nk := FusedOpt
	nk.NoKernels = true
	cfg := []Config{FusedOpt, FullOpt, nk}[rng.Intn(3)]

	sdb, view, del, _ := db.snapshotForRead()
	plan := sdb.compile(q, cfg, nil)
	plan.loadExtractors(sdb, nil)
	cols := plan.bind(sdb.Fact.MustColumn)
	var morsels []morsel
	for bi := 0; bi*65536 < sdb.numRows; bi++ {
		morsels = append(morsels, sdb.sealedMorsel(cols, del.sealed, bi))
	}
	morsels = append(morsels, deltaMorsels(plan, view, del.ws)...)
	hashed := *plan.aggShape
	hashed.dense = false

	for _, k := range []int{1, 2 + rng.Intn(7)} {
		rng.Shuffle(len(morsels), func(i, j int) { morsels[i], morsels[j] = morsels[j], morsels[i] })
		parts := make([]*fusedWorker, k)
		for i := range parts {
			parts[i] = sdb.getFusedWorker(plan, false)
			if k > 1 && rng.Intn(2) == 0 {
				parts[i].agg.reset(&hashed)
			}
		}
		for i := range morsels {
			fusedBlock(&morsels[i], plan, parts[rng.Intn(k)])
		}
		for len(parts) > 1 {
			i := rng.Intn(len(parts))
			j := rng.Intn(len(parts) - 1)
			if j >= i {
				j++
			}
			parts[i].agg.merge(&parts[j].agg)
			sdb.putFusedWorker(parts[j])
			parts = append(parts[:j], parts[j+1:]...)
		}
		got := parts[0].agg.render(q.ID)
		sdb.putFusedWorker(parts[0])
		if !got.Equal(want) {
			t.Errorf("%s [%s]: %d randomly dealt partials over %d morsels merge to a different result\nSQL: %s\n%s",
				q.ID, cfg.Code(), k, len(morsels), q.SQL(), want.Diff(got))
		}
	}
}

// TestIngestColdEquivalence pins the acceptance criterion that
// post-compaction segment scans are bit-identical to the same data loaded
// cold: after inserts flush into the segment file, (a) the live store, (b)
// a cold reopen of the mutated file, and (c) a segment file freshly written
// from a from-scratch build over base+inserts must all produce identical
// results across the engine matrix.
func TestIngestColdEquivalence(t *testing.T) {
	data := ssb.Generate(0.005)
	refData := ssb.Generate(0.005)

	mem := BuildDB(data, true)
	segDB, store := segBackedDB(t, mem, data.SF, 0)
	if err := segDB.EnableDelta(0); err != nil {
		t.Fatalf("EnableDelta: %v", err)
	}
	shape, err := segDB.BatchShape()
	if err != nil {
		t.Fatalf("BatchShape: %v", err)
	}
	batch, err := ssb.RandBatch(77, 70000, shape)
	if err != nil {
		t.Fatalf("RandBatch: %v", err)
	}
	refData.AppendBatch(batch)
	if _, err := segDB.Insert(batch); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := segDB.FlushDelta(); err != nil {
		t.Fatalf("FlushDelta: %v", err)
	}

	// Cold reopen of the appended file.
	coldDB, coldStore := reopen(t, store.Path())
	// From-scratch build over the same logical rows, through a fresh file.
	// BuildDB requires the generator's physical sort order, which appends
	// broke; the from-scratch path re-sorts first (order never changes
	// aggregate results).
	refData.SortLineorders()
	rebuilt := BuildDB(refData, true)
	scratchDB, _ := segBackedDB(t, rebuilt, refData.SF, 0)

	if got, want := coldDB.NumRows(), refData.NumLineorders(); got != want {
		t.Fatalf("cold reopen has %d rows, want %d", got, want)
	}
	queries := ssb.Queries()
	for qi := 0; qi < 8; qi++ {
		queries = append(queries, ssb.RandQuery(int64(5000+qi)))
	}
	for _, q := range queries {
		want := ssb.Reference(refData, q)
		for _, eng := range ingestEngines() {
			for label, db := range map[string]*DB{
				"appended-live": segDB, "appended-cold": coldDB, "rebuilt-scratch": scratchDB,
			} {
				if got := db.Run(q, eng.cfg, nil); !got.Equal(want) {
					t.Errorf("Q%s [%s %s]: diverges from rebuilt reference\n%s",
						q.ID, label, eng.label, want.Diff(got))
				}
			}
		}
	}
	if p := coldStore.Pool().PinnedFrames(); p != 0 {
		t.Errorf("%d frames pinned on the cold store after the run", p)
	}
}

// reopen opens the segment file at path as a fresh store + DB.
func reopen(t *testing.T, path string) (*DB, *segstore.Store) {
	t.Helper()
	st, err := segstore.Open(path, 0)
	if err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	t.Cleanup(func() { st.Close() })
	db, err := OpenSegmentDB(st)
	if err != nil {
		t.Fatalf("OpenSegmentDB after reopen: %v", err)
	}
	return db, st
}

// TestIngestEpochSnapshot pins the visibility rule at the API level: a
// query resolves its snapshot when it starts, so results reflect exactly
// the inserts accepted before it — and the epoch counter tracks them.
func TestIngestEpochSnapshot(t *testing.T) {
	data := ssb.Generate(0.002)
	db := BuildDB(data, true)
	if err := db.EnableDelta(0); err != nil {
		t.Fatalf("EnableDelta: %v", err)
	}
	if got := db.Epoch(); got != 0 {
		t.Fatalf("fresh DB epoch %d, want 0", got)
	}
	countQ := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}
	base := db.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]
	if int(base) != data.NumLineorders() {
		t.Fatalf("base count %d, want %d", base, data.NumLineorders())
	}
	shape, _ := db.BatchShape()
	batch, err := ssb.RandBatch(5, 1234, shape)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := db.Insert(batch)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1234 {
		t.Fatalf("epoch after first insert %d, want 1234", epoch)
	}
	if got := db.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]; got != base+1234 {
		t.Fatalf("count after insert %d, want %d", got, base+1234)
	}
	// The pre-insert result was computed against the old snapshot and must
	// not have been affected retroactively (it is a value, but re-assert
	// the counter relationship for the compacted state too).
	if _, err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if got := db.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]; got != base+1234 {
		t.Fatalf("count after compaction %d, want %d (compaction must not change visibility)", got, base+1234)
	}
	if got := db.Epoch(); got != 1234 {
		t.Fatalf("epoch after compaction %d, want 1234 (compaction moves rows, not the data version)", got)
	}
}

// TestDeltaChunkWrappedOncePerQuery: wrapping a delta chunk as a block scans
// the whole chunk, so a query must do it once per (chunk, column) — not once
// per probe and sparse gather that acquires the chunk, nor once per slot
// that names the column (Q1.1 probes lo_discount and multiplies by it).
func TestDeltaChunkWrappedOncePerQuery(t *testing.T) {
	db := BuildDB(ssb.Generate(0.002), true)
	if err := db.EnableDelta(0); err != nil {
		t.Fatalf("EnableDelta: %v", err)
	}
	shape, _ := db.BatchShape()
	batch, err := ssb.RandBatch(5, 3000, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	sdb, view, _, _ := db.snapshotForRead()
	plan := sdb.compile(ssb.QueryByID("1.1"), FusedOpt, nil)
	ms := deltaMorsels(plan, view, nil)
	if len(ms) != 1 {
		t.Fatalf("%d delta morsels, want 1", len(ms))
	}
	byName, shared := map[string]*colstore.Column{}, false
	for i, col := range ms[0].cols {
		name := plan.slots[i]
		if prev, ok := byName[name]; ok {
			shared = true
			if prev != col {
				t.Errorf("slots naming %s bind different columns", name)
			}
		}
		byName[name] = col
		first, release := col.AcquireBlock(0)
		release()
		again, release := col.AcquireBlock(0)
		release()
		if first != again {
			t.Errorf("%s: chunk wrapped again on the second acquire", name)
		}
	}
	if !shared {
		t.Fatal("Q1.1 no longer names a column in two slots; pick a query that does")
	}
}

// TestIngestConcurrentSnapshots runs inserters, queriers and the background
// tuple mover together against a segment-backed store: every observed
// count(*) must be the base plus a whole number of batches (inserts are
// atomic, snapshots are consistent) and monotone per reader, regardless of
// how compaction interleaves. Run under -race in CI.
func TestIngestConcurrentSnapshots(t *testing.T) {
	data := ssb.Generate(0.002)
	mem := BuildDB(data, true)
	segDB, store := segBackedDB(t, mem, data.SF, 0)
	if err := segDB.EnableDelta(0); err != nil {
		t.Fatalf("EnableDelta: %v", err)
	}
	segDB.StartCompactor()
	shape, _ := segDB.BatchShape()

	const inserters = 2
	const batches = 8
	const batchRows = 5000
	base := int64(data.NumLineorders())
	countQ := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for i := 0; i < inserters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch, err := ssb.RandBatch(int64(i*1000+b), batchRows, shape)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := segDB.Insert(batch); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			last := base
			cfg := FusedOpt
			cfg.Workers = 1 + r
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := segDB.Run(countQ, cfg, nil).Rows[0].Aggs[0]
				if got < last {
					errCh <- fmt.Errorf("reader %d: count went backwards (%d -> %d)", r, last, got)
					return
				}
				if (got-base)%batchRows != 0 {
					errCh <- fmt.Errorf("reader %d: count %d is not base+k*%d — torn snapshot", r, got, batchRows)
					return
				}
				last = got
			}
		}(r)
	}
	// Traced readers: on this insert-only history the epoch is the number of
	// rows ever inserted, so the epoch a trace reports must name exactly the
	// rows its query counted — the snapshot's, not some earlier instant's.
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := &obs.Trace{}
				var st iosim.Stats
				res, err := segDB.RunCtx(obs.WithTrace(context.Background(), tr), countQ, FusedOpt, &st)
				if err != nil {
					errCh <- err
					return
				}
				if got := res.Rows[0].Aggs[0]; got != base+tr.Epoch {
					errCh <- fmt.Errorf("traced reader %d: counted %d rows but the trace names epoch %d (base %d)", r, got, tr.Epoch, base)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := segDB.FlushDelta(); err != nil {
		t.Fatalf("FlushDelta: %v", err)
	}
	segDB.CloseDelta()
	want := base + inserters*batches*batchRows
	if got := segDB.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]; got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	if ds := segDB.DeltaStats(); ds.Err != "" {
		t.Fatalf("tuple mover recorded error: %s", ds.Err)
	}
	if p := store.Pool().PinnedFrames(); p != 0 {
		t.Errorf("%d frames still pinned after concurrent ingest run", p)
	}
}

// TestDeleteConcurrentSnapshots races deletes against inserters, count(*)
// readers, and the background tuple mover. Every insert batch carries one
// unique marker orderkey, and a deleter tombstones every second acked
// batch while compaction purges and re-seals underneath, so the snapshot
// invariants under test are: (a) global counts only ever move by whole
// batches — inserts and deletes are atomic to readers; (b) a per-key count
// is always 0 or the full batch, never a torn prefix. Run under -race in
// CI.
func TestDeleteConcurrentSnapshots(t *testing.T) {
	data := ssb.Generate(0.002)
	mem := BuildDB(data, true)
	segDB, store := segBackedDB(t, mem, data.SF, 0)
	if err := segDB.EnableDelta(0); err != nil {
		t.Fatalf("EnableDelta: %v", err)
	}
	segDB.StartCompactor()
	shape, _ := segDB.BatchShape()

	const inserters = 2
	const batches = 6
	const batchRows = 4000
	base := int64(data.NumLineorders())
	keyFor := func(i, b int) int32 { return 1_600_000_000 + int32(i*100+b) }
	countQ := &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}
	keyCount := func(key int32, cfg Config) int64 {
		q := &ssb.Query{
			ID:          fmt.Sprintf("key-%d", key),
			Aggs:        []ssb.AggSpec{{Func: ssb.FuncCount}},
			FactFilters: []ssb.FactFilter{{Col: "orderkey", Pred: compress.Eq(key)}},
		}
		return segDB.Run(q, cfg, nil).Rows[0].Aggs[0]
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	acked := make(chan int32, inserters*batches)
	for i := 0; i < inserters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch, err := ssb.RandBatch(int64(i*1000+b), batchRows, shape)
				if err != nil {
					errCh <- err
					return
				}
				key := keyFor(i, b)
				for r := range batch.OrderKey {
					batch.OrderKey[r] = key
				}
				if _, err := segDB.Insert(batch); err != nil {
					errCh <- err
					return
				}
				acked <- key
			}
		}(i)
	}
	var deleted []int32
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		n := 0
		for key := range acked {
			n++
			if n%2 != 0 {
				continue
			}
			got, err := segDB.Delete([]ssb.FactFilter{{Col: "orderkey", Pred: compress.Eq(key)}})
			if err != nil {
				errCh <- err
				return
			}
			if got != batchRows {
				errCh <- fmt.Errorf("delete of acked key %d tombstoned %d rows, want %d", key, got, batchRows)
				return
			}
			deleted = append(deleted, key)
		}
	}()
	var rwg sync.WaitGroup
	rwg.Add(2)
	go func() { // whole-batch atomicity of the global count
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := segDB.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]
			if d := got - base; d < 0 || d%batchRows != 0 {
				errCh <- fmt.Errorf("count %d is not base+k*%d — a reader saw a torn insert or delete", got, batchRows)
				return
			}
		}
	}()
	go func() { // per-key all-or-nothing visibility
		defer rwg.Done()
		for b := 0; ; b++ {
			select {
			case <-stop:
				return
			default:
			}
			if got := keyCount(keyFor(b%inserters, b%batches), FullOpt); got != 0 && got != batchRows {
				errCh <- fmt.Errorf("key %d count %d — torn per-key visibility, want 0 or %d",
					keyFor(b%inserters, b%batches), got, batchRows)
				return
			}
		}
	}()
	wg.Wait()
	close(acked)
	dwg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if err := segDB.FlushDelta(); err != nil {
		t.Fatalf("FlushDelta: %v", err)
	}
	segDB.CloseDelta()
	want := base + int64(inserters*batches-len(deleted))*batchRows
	if got := segDB.Run(countQ, FusedOpt, nil).Rows[0].Aggs[0]; got != want {
		t.Fatalf("final count %d, want %d (%d batches deleted)", got, want, len(deleted))
	}
	isDeleted := map[int32]bool{}
	for _, key := range deleted {
		isDeleted[key] = true
	}
	for i := 0; i < inserters; i++ {
		for b := 0; b < batches; b++ {
			key := keyFor(i, b)
			want := int64(batchRows)
			if isDeleted[key] {
				want = 0
			}
			for _, eng := range ingestEngines() {
				if got := keyCount(key, eng.cfg); got != want {
					t.Errorf("key %d [%s]: final count %d, want %d", key, eng.label, got, want)
				}
			}
		}
	}
	if ds := segDB.DeltaStats(); ds.Err != "" {
		t.Fatalf("tuple mover recorded error: %s", ds.Err)
	}
	if p := store.Pool().PinnedFrames(); p != 0 {
		t.Errorf("%d frames still pinned after concurrent delete run", p)
	}
}

// TestSealedCopyCarriesEveryField: the tuple mover builds its sealed
// snapshots field by field (the write half's atomic must not be copied), so
// a field added to DB later must be added to sealedCopy too. Every field of
// the fixture is set; the copy must carry each one except the write half.
func TestSealedCopyCarriesEveryField(t *testing.T) {
	data := ssb.Generate(0.002)
	db, _ := segBackedDB(t, BuildDB(data, true), data.SF, 0)
	db.ckpt.LogRows = 1 // a fresh store's checkpoint is zero
	if err := db.EnableDelta(0); err != nil {
		t.Fatal(err)
	}
	src := reflect.ValueOf(db).Elem()
	dst := reflect.ValueOf(db.sealedCopy(db.Fact, db.numRows)).Elem()
	for i := 0; i < src.NumField(); i++ {
		name := src.Type().Field(i).Name
		switch {
		case src.Field(i).IsZero():
			t.Errorf("fixture leaves DB.%s zero: set it, so the copy is checked for it", name)
		case name == "ingest":
			if !dst.Field(i).IsZero() {
				t.Error("sealed copy carries the write half")
			}
		case dst.Field(i).IsZero():
			t.Errorf("sealedCopy drops DB.%s", name)
		}
	}
}
