package exec

import (
	"context"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// traceConfigs is the engine matrix the trace tests sweep: per-probe, fused
// at one and many workers, kernels off, and early materialization.
func traceConfigs() []struct {
	label string
	cfg   Config
} {
	nk := FusedOpt
	nk.NoKernels = true
	early := FullOpt
	early.LateMat = false
	w8 := FusedOpt
	w8.Workers = 8
	return []struct {
		label string
		cfg   Config
	}{
		{"per-probe", FullOpt},
		{"fused-w1", FusedOpt},
		{"fused-w8", w8},
		{"fused-nokernels", nk},
		{"early-mat", early},
	}
}

// TestTracedDifferential pins the first law of the tracing layer: attaching
// a trace must not change anything — results bit-identical, and the
// query's iosim.Stats (the whole struct, every counter) equal to the
// untraced run's. It also pins the accounting law that makes traces
// trustworthy: summing the per-stage counters reproduces the query's total
// Stats exactly, for every engine.
func TestTracedDifferential(t *testing.T) {
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)
	const trials = 40

	for _, tc := range traceConfigs() {
		for i := 0; i < trials; i++ {
			seed := diffSeedBase + int64(i)
			q := ssb.RandQuery(seed)

			var stPlain iosim.Stats
			plain, err := db.RunCtx(context.Background(), q, tc.cfg, &stPlain)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.label, seed, err)
			}

			tr := &obs.Trace{}
			var stTraced iosim.Stats
			traced, err := db.RunCtx(obs.WithTrace(context.Background(), tr), q, tc.cfg, &stTraced)
			if err != nil {
				t.Fatalf("%s seed %d (traced): %v", tc.label, seed, err)
			}

			if !traced.Equal(plain) {
				t.Errorf("%s seed %d: tracing changed the result\nSQL: %s\n%s",
					tc.label, seed, q.SQL(), plain.Diff(traced))
			}
			if stPlain != stTraced {
				t.Errorf("%s seed %d: tracing changed the I/O accounting\nuntraced %+v\ntraced   %+v",
					tc.label, seed, stPlain, stTraced)
			}
			if tr.Engine == "" || len(tr.Stages) == 0 || tr.WallNs <= 0 {
				t.Fatalf("%s seed %d: degenerate trace: engine=%q stages=%d wall=%d",
					tc.label, seed, tr.Engine, len(tr.Stages), tr.WallNs)
			}
			if tr.Config != tc.cfg.Code() {
				t.Errorf("%s seed %d: trace config %q, want %q", tc.label, seed, tr.Config, tc.cfg.Code())
			}

			tot := tr.Totals()
			stageSum := iosim.Stats{
				BytesRead: tot.BytesRead,
				// Writes and seeks are not stage-attributed; carry them over
				// so the whole-struct comparison pins everything else.
				BytesWritten:  stTraced.BytesWritten,
				Seeks:         stTraced.Seeks,
				BlocksFetched: tot.BlocksFetched,
				BlocksPruned:  tot.BlocksPruned,
				BlocksCovered: tot.BlocksCovered,
				DecodedBytes:  tot.DecodedBytes,
				KernelFolds:   tot.KernelFolds,
				Gathers:       tot.Gathers,
			}
			if stageSum != stTraced {
				t.Errorf("%s seed %d: stage sum does not reconcile with query stats\nSQL: %s\nstages %+v\nstats  %+v",
					tc.label, seed, q.SQL(), stageSum, stTraced)
			}

			// Run(q, cfg, nil) is the documented no-accounting form; a trace
			// must not turn it into a nil dereference, and still gets its
			// stages and the workers that actually ran.
			trNil := &obs.Trace{}
			noStats, err := db.RunCtx(obs.WithTrace(context.Background(), trNil), q, tc.cfg, nil)
			if err != nil {
				t.Fatalf("%s seed %d (traced, nil stats): %v", tc.label, seed, err)
			}
			totNil := trNil.Totals()
			totNil.WallNs = tot.WallNs
			if !noStats.Equal(plain) || totNil != tot {
				t.Errorf("%s seed %d: traced run without a Stats differs: totals %+v, want %+v",
					tc.label, seed, totNil, tot)
			}
			wantWorkers := 1
			if tc.cfg.FusedActive() {
				nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
				space, _ := db.groupSpace(q)
				wantWorkers = fusedWorkersFor(tc.cfg.Workers, space, nb)
			}
			if tr.Workers != wantWorkers || trNil.Workers != wantWorkers {
				t.Errorf("%s seed %d: trace reports %d/%d workers, %d ran",
					tc.label, seed, tr.Workers, trNil.Workers, wantWorkers)
			}
		}
	}
}

// TestTraceConsistencyPool cross-checks the trace against ground truth that
// tracing cannot see: on a fresh segment-backed store, a stage table's
// total block-fetch count must equal the buffer pool's acquire count
// (hits+misses) for the run, and its bytes-read total the query's charged
// I/O. The 13 SSBM queries cover every probe shape.
func TestTraceConsistencyPool(t *testing.T) {
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)

	for _, tc := range traceConfigs() {
		segDB, store := segBackedDB(t, db, data.SF, 0)
		for _, q := range ssb.Queries() {
			ps0 := store.Pool().Stats()
			tr := &obs.Trace{}
			var st iosim.Stats
			res, err := segDB.RunCtx(obs.WithTrace(context.Background(), tr), q, tc.cfg, &st)
			if err != nil {
				t.Fatalf("%s Q%s: %v", tc.label, q.ID, err)
			}
			want := ssb.Reference(data, q)
			if !res.Equal(want) {
				t.Fatalf("%s Q%s: wrong result under trace\n%s", tc.label, q.ID, want.Diff(res))
			}
			ps1 := store.Pool().Stats()
			acquires := (ps1.Hits - ps0.Hits) + (ps1.Misses - ps0.Misses)
			tot := tr.Totals()
			if tot.BlocksFetched != acquires {
				t.Errorf("%s Q%s: trace fetched=%d, pool acquires=%d\n%s",
					tc.label, q.ID, tot.BlocksFetched, acquires, tr.String())
			}
			if tot.BytesRead != st.BytesRead {
				t.Errorf("%s Q%s: trace read=%d, stats read=%d", tc.label, q.ID, tot.BytesRead, st.BytesRead)
			}
		}
	}
}

// TestTraceShapeQ11 pins the trace's content on the best-understood plan in
// the repo: Q1.1 fused runs one probe stage per planned probe plus plan and
// extract+aggregate, and its probe rows narrow monotonically.
func TestTraceShapeQ11(t *testing.T) {
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)
	q := ssb.QueryByID("1.1")
	tr := &obs.Trace{}
	var st iosim.Stats
	if _, err := db.RunCtx(obs.WithTrace(context.Background(), tr), q, FusedOpt, &st); err != nil {
		t.Fatal(err)
	}
	if tr.Engine != "fused" || tr.Query != "1.1" {
		t.Fatalf("trace header: %+v", tr)
	}
	var probes []obs.Stage
	for _, s := range tr.Stages {
		if s.Name == "probe" {
			probes = append(probes, s)
		}
	}
	if len(probes) != 3 {
		t.Fatalf("Q1.1 fused has %d probe stages, want 3:\n%s", len(probes), tr.String())
	}
	for i, p := range probes {
		if p.RowsOut > p.RowsIn {
			t.Errorf("probe %d grew candidates: %d -> %d", i, p.RowsIn, p.RowsOut)
		}
		if i > 0 && p.RowsIn != probes[i-1].RowsOut {
			t.Errorf("probe %d rows in %d != previous rows out %d", i, p.RowsIn, probes[i-1].RowsOut)
		}
	}
	last := tr.Stages[len(tr.Stages)-1]
	if last.Name != "extract+aggregate" || last.RowsIn != probes[2].RowsOut {
		t.Errorf("tail stage %q rows in %d, want extract+aggregate fed %d", last.Name, last.RowsIn, probes[2].RowsOut)
	}
}

// TestTraceUnderIngest pins the trace's shape with a live write store, for
// every engine: the query is planned once (one plan stage, however many
// stores it touches), the delta pass is exactly one ws-scan stage fed the
// snapshot's whole delta, and tracing still changes neither the result nor
// the query's iosim.Stats.
func TestTraceUnderIngest(t *testing.T) {
	data := ssb.Generate(0.01)
	refData := ssb.Generate(0.01)
	db := BuildDB(data, true)
	if err := db.EnableDelta(0); err != nil {
		t.Fatal(err)
	}
	shape, err := db.BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	// Two batches and a delete that tombstones rows on both sides of the
	// frontier, so the delta morsels take the masked arm too. wsDead counts
	// the write-store rows it tombstones.
	var wsDead int64
	for i, n := range []int{3000, 1700} {
		batch, err := ssb.RandBatch(int64(40+i), n, shape)
		if err != nil {
			t.Fatal(err)
		}
		refData.AppendBatch(batch)
		if _, err := db.Insert(batch); err != nil {
			t.Fatal(err)
		}
		for _, qty := range batch.Quantity {
			if qty >= 20 && qty <= 22 {
				wsDead++
			}
		}
	}
	del := []ssb.FactFilter{{Col: "quantity", Pred: compress.Between(20, 22)}}
	refData.DeleteWhere(del)
	if _, err := db.Delete(del); err != nil {
		t.Fatal(err)
	}
	deltaRows := db.DeltaStats().PendingRows
	if deltaRows != 4700 {
		t.Fatalf("delta holds %d rows, want 4700", deltaRows)
	}

	queries := ssb.Queries()
	for i := 0; i < 12; i++ {
		queries = append(queries, ssb.RandQuery(diffSeedBase+int64(i)))
	}
	for _, tc := range traceConfigs() {
		for _, q := range queries {
			var stPlain, stTraced iosim.Stats
			plain := db.Run(q, tc.cfg, &stPlain)
			tr := &obs.Trace{}
			traced, err := db.RunCtx(obs.WithTrace(context.Background(), tr), q, tc.cfg, &stTraced)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.label, q.ID, err)
			}
			if want := ssb.Reference(refData, q); !plain.Equal(want) {
				t.Errorf("%s %s: diverges from reference under ingest\n%s", tc.label, q.ID, want.Diff(plain))
			}
			if !traced.Equal(plain) {
				t.Errorf("%s %s: tracing changed the result\n%s", tc.label, q.ID, plain.Diff(traced))
			}
			if stPlain != stTraced {
				t.Errorf("%s %s: tracing changed the I/O accounting\nuntraced %+v\ntraced   %+v",
					tc.label, q.ID, stPlain, stTraced)
			}
			var plans, scans int
			for _, s := range tr.Stages {
				switch s.Name {
				case "plan":
					plans++
				case "ws-scan":
					scans++
					if s.RowsIn != deltaRows {
						t.Errorf("%s %s: ws-scan rows in %d, snapshot delta holds %d", tc.label, q.ID, s.RowsIn, deltaRows)
					}
					// Tombstoned counts the deleted rows the scan met — every
					// one in a morsel no zone map pruned, matched or not.
					if s.Tombstoned > wsDead || (s.BlocksPruned == 0 && s.Tombstoned != wsDead) {
						t.Errorf("%s %s: ws-scan tombstoned %d with %d morsels pruned, write store holds %d deleted rows",
							tc.label, q.ID, s.Tombstoned, s.BlocksPruned, wsDead)
					}
				}
			}
			if plans != 1 || scans != 1 {
				t.Errorf("%s %s: %d plan and %d ws-scan stages, want exactly one of each\n%s",
					tc.label, q.ID, plans, scans, tr.String())
			}
		}
	}
}

// BenchmarkTraceOverhead guards the nil-trace fast path: the "untraced"
// variant runs the instrumented engines with no trace attached (the
// production default) and exists to be compared against "traced" and
// against pre-instrumentation baselines; the per-block cost of tracing off
// must stay in the noise (<2% on Q1.1).
func BenchmarkTraceOverhead(b *testing.B) {
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)
	q := ssb.QueryByID("1.1")
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var st iosim.Stats
			if _, err := db.RunCtx(context.Background(), q, FusedOpt, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var st iosim.Stats
			tr := &obs.Trace{}
			if _, err := db.RunCtx(obs.WithTrace(context.Background(), tr), q, FusedOpt, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
	// traced+recorded is the always-on serving path: trace attached AND the
	// flight recorder fed a QueryRecord per run. The recorder adds one
	// mutex-guarded ring write over "traced" — the budget is <5%.
	b.Run("traced+recorded", func(b *testing.B) {
		rec := obs.NewRecorder(512)
		for i := 0; i < b.N; i++ {
			var st iosim.Stats
			tr := &obs.Trace{}
			t0 := time.Now()
			if _, err := db.RunCtx(obs.WithTrace(context.Background(), tr), q, FusedOpt, &st); err != nil {
				b.Fatal(err)
			}
			rec.Record(obs.QueryRecord{
				UnixNano: t0.UnixNano(),
				Query:    tr.Query,
				Engine:   tr.Engine,
				Config:   tr.Config,
				Workers:  tr.Workers,
				Epoch:    tr.Epoch,
				ExecNs:   int64(time.Since(t0)),
				Totals:   tr.Totals(),
			})
		}
		if rec.Len() == 0 {
			b.Fatal("recorder stayed empty")
		}
	})
}
