package main

// The in-process ladder: one rung per layer, run in the benchmark process
// on the same segment file, so a regression seen end to end localises to a
// rung. This file and ladder_kernels.go are the only places the benchmark
// calls into the engine's packages beyond the bulk load; README.md lists
// the calls.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// Repetitions. Engine rungs cost tens of milliseconds a call; the others
// microseconds.
const (
	engineReps = 5
	cheapReps  = 20
)

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// ladder carries what the rungs share.
type ladder struct {
	e   *env
	m   *metricSet
	ctx context.Context
	err error
}

// rung runs one rung under a span; the first failing rung stops the ladder.
func (l *ladder) rung(name string, fn func() error) {
	if l.err != nil {
		return
	}
	l.e.spans.timed("ladder."+name, func() {
		if err := fn(); err != nil {
			l.err = fmt.Errorf("%s: %w", name, err)
		}
	})
}

func quietServer(db *core.DB, opts server.Options) (*server.Server, error) {
	opts.HistoryInterval = -1 // no background sampler inside the benchmark process
	return server.New(db, opts)
}

func runLadder(e *env, m *metricSet) error {
	l := &ladder{e: e, m: m, ctx: context.Background()}
	l.rung("frontend", l.frontend)
	l.rung("engine", l.engine)
	l.rung("storage", l.storage)
	l.rung("kernels", l.kernels)
	l.rung("ingest", l.ingest)
	return l.err
}

// hotPlans is serve_hot's request set as plans.
func hotPlans() []*ssb.Query {
	return append(ssb.Queries(), adhocPool...)
}

// frontend times the parse and render steps every /query pays.
func (l *ladder) frontend() error {
	plans := hotPlans()
	texts := make([]string, len(plans))
	render := timeMedian(cheapReps, func() {
		for i, q := range plans {
			texts[i] = q.SQL()
		}
	})
	var perr error
	parse := timeMedian(cheapReps, func() {
		for _, text := range texts {
			if _, err := sql.Parse("bench", text); err != nil {
				perr = err
			}
		}
	})
	n := float64(len(plans))
	l.m.set("ssb.sql_render_us", float64(render)/1e3/n, cheapReps)
	l.m.set("sql.parse_us", float64(parse)/1e3/n, cheapReps)
	return perr
}

// engine times core.DB.RunPlanCtx per query on a warm unbounded pool, then
// Server.Execute and the HTTP handler on top of it.
func (l *ladder) engine() error {
	db, err := core.OpenSegmentStore(l.e.segPath, 0)
	if err != nil {
		return err
	}
	defer db.SegmentStore().Close()
	// The servers supply the engine configuration the serving path runs.
	var srv [3]*server.Server // workers 1, workers 2, workers 2 + cache
	for i, o := range []server.Options{
		{Workers: 1, CacheEntries: -1}, {Workers: 2, CacheEntries: -1}, {Workers: 2, CacheEntries: 256},
	} {
		if srv[i], err = quietServer(db, o); err != nil {
			return err
		}
		defer srv[i].Close()
	}

	// Per-query medians at workers 1 and 2.
	queries := ssb.Queries()
	var med [2]map[string]float64
	for w := range med {
		med[w] = map[string]float64{}
		cfg := srv[w].Config()
		for _, q := range queries {
			var rerr error
			run := func() {
				if _, _, err := db.RunPlanCtx(l.ctx, q, cfg); err != nil {
					rerr = err
				}
			}
			run() // fill the pool
			med[w][q.ID] = float64(timeMedian(engineReps, run)) / 1e6
			if rerr != nil {
				return rerr
			}
		}
	}
	var serial, parallel []float64
	for f := 1; f <= 4; f++ {
		var ms []float64
		for _, q := range queries {
			if q.Flight != f {
				continue
			}
			ms = append(ms, med[0][q.ID])
			if f >= 2 {
				serial = append(serial, med[0][q.ID])
				parallel = append(parallel, med[1][q.ID])
			}
		}
		l.m.set(fmt.Sprintf("core.run_ms.f%d", f), geomean(ms), len(ms)*engineReps)
	}
	l.m.set("exec.parallel_speedup", ratio(geomean(serial), geomean(parallel)), len(serial)*engineReps)

	// What Server.Execute adds to an engine run: admission, trace, recorder,
	// stats. Paired on the cheap flight-1 queries so the difference is not
	// lost in the engine's own variation.
	var over []float64
	cfg := srv[1].Config()
	for rep := 0; rep < cheapReps; rep++ {
		for _, q := range queries[:3] {
			start := time.Now()
			if _, _, err := db.RunPlanCtx(l.ctx, q, cfg); err != nil {
				return err
			}
			mid := time.Now()
			if _, err := srv[1].Execute(l.ctx, q); err != nil {
				return err
			}
			over = append(over, float64(time.Since(mid)-mid.Sub(start))/1e3)
		}
	}
	l.m.set("server.execute_miss_overhead_us", median(over), len(over))

	// Result-cache hits: Execute alone, then through the HTTP handler into
	// a recorder (the serve_hot round trip minus this is wire + net/http).
	plans := hotPlans()
	for _, q := range plans {
		if _, err := srv[2].Execute(l.ctx, q); err != nil {
			return err
		}
	}
	var herr error
	hit := timeMedian(cheapReps, func() {
		for _, q := range plans {
			if r, err := srv[2].Execute(l.ctx, q); err != nil || !r.Cached {
				herr = fmt.Errorf("expected a cache hit for %s (err %v)", q.ID, err)
			}
		}
	})
	if herr != nil {
		return herr
	}
	l.m.set("server.execute_hit_us", float64(hit)/1e3/float64(len(plans)), cheapReps)
	t, err := hotTraffic()
	if err != nil {
		return err
	}
	h := srv[2].Handler()
	handler := timeMedian(cheapReps, func() {
		for i := range t.reqs {
			r := &t.reqs[i]
			method, body := http.MethodGet, bytes.NewReader(nil)
			if r.body != nil {
				method, body = http.MethodPost, bytes.NewReader(r.body)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, r.path, body))
			if rec.Code != http.StatusOK {
				herr = fmt.Errorf("handler: %s: status %d", r.key, rec.Code)
			}
		}
	})
	l.m.set("server.handler_hit_us", float64(handler)/1e3/float64(len(t.reqs)), cheapReps)
	return herr
}

// ingest times the write path without the wire: Server.Insert against the
// /insert handler (the difference is JSON row decode), core.DB.Insert and
// FlushIngest without a WAL, and one WAL append+commit.
func (l *ladder) ingest() error {
	batches := make([]*ssb.Lineorders, 0, cheapReps*2)
	bodies := make([][]byte, 0, cap(batches))
	for i := 0; i < cap(batches); i++ {
		b, err := insertBatch(l.e.cfg.seed, 1_000_000+i, l.e.ans.Shape)
		if err != nil {
			return err
		}
		body, err := insertBody(b)
		if err != nil {
			return err
		}
		batches, bodies = append(batches, b), append(bodies, body)
	}

	// Handler vs Server.Insert, alternating, on a private copy.
	seg := filepath.Join(l.e.work, "ladder.seg")
	if err := copyFile(seg, l.e.segPath); err != nil {
		return err
	}
	db, err := core.OpenSegmentStore(seg, 0)
	if err != nil {
		return err
	}
	srv, err := quietServer(db, server.Options{Workers: 1, CacheEntries: -1, Ingest: true})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var direct, viaHandler []float64
	for i := 0; i < len(batches); i += 2 {
		start := time.Now()
		if _, err := srv.Insert(batches[i]); err != nil {
			return err
		}
		direct = append(direct, float64(time.Since(start))/1e6)
		rec := httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(bodies[i+1])))
		viaHandler = append(viaHandler, float64(time.Since(start))/1e6)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/insert handler: status %d: %s", rec.Code, rec.Body)
		}
	}
	l.m.set("server.insert_front_p50_ms", median(viaHandler)-median(direct), len(direct))
	if err := srv.Close(); err != nil {
		return err
	}
	if err := db.SegmentStore().Close(); err != nil {
		return err
	}

	// core.DB.Insert and FlushIngest, no WAL, no background mover: four
	// blocks' worth of rows in, then one compaction of all of them.
	if err := copyFile(seg, l.e.segPath); err != nil {
		return err
	}
	if db, err = core.OpenSegmentStore(seg, 0); err != nil {
		return err
	}
	defer db.SegmentStore().Close()
	if err := db.EnableIngest(false, 0); err != nil {
		return err
	}
	const rows = 4 * 65536
	big, err := ssb.RandBatch(l.e.cfg.seed, rows, l.e.ans.Shape)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := db.Insert(big); err != nil {
		return err
	}
	l.m.set("exec.insert_rows_per_s", rows/time.Since(start).Seconds(), 1)
	start = time.Now()
	if err := db.FlushIngest(); err != nil {
		return err
	}
	l.m.set("exec.compact_rows_per_s", rows/time.Since(start).Seconds(), 1)

	// One durable commit: append a small insert record and fsync (window 0,
	// one stream — nothing to group with).
	log, _, err := wal.Open(filepath.Join(l.e.work, "ladder.wal"), wal.Options{})
	if err != nil {
		return err
	}
	rec := wal.Insert{Cols: [][]int32{make([]int32, 256)}}
	var werr error
	commit := timeMedian(cheapReps, func() {
		lsn, err := log.Append(rec)
		if err == nil {
			err = log.Commit(lsn)
		}
		if err != nil {
			werr = err
		}
	})
	l.m.set("wal.commit_us", float64(commit)/1e3, cheapReps)
	if err := log.Close(); werr == nil {
		werr = err
	}
	return werr
}

// storage times the segment store alone: open, a pool hit, a pool miss.
func (l *ladder) storage() error {
	var oerr error
	open := timeMedian(cheapReps, func() {
		st, err := segstore.Open(l.e.segPath, 0)
		if err == nil {
			err = st.Close()
		}
		if err != nil {
			oerr = err
		}
	})
	if oerr != nil {
		return oerr
	}
	l.m.set("segstore.open_ms", float64(open)/1e6, cheapReps)

	// A pool far smaller than one column: walking the column misses on
	// every block (pread + CRC + wire decode + eviction).
	cold, err := segstore.Open(l.e.segPath, 1<<20)
	if err != nil {
		return err
	}
	defer cold.Close()
	col, err := factColumn(cold, "revenue")
	if err != nil {
		return err
	}
	var miss []float64
	for i := 0; i < col.NumBlocks(); i++ {
		start := time.Now()
		_, release := col.AcquireBlock(i)
		miss = append(miss, float64(time.Since(start))/1e3)
		release()
	}
	l.m.set("segstore.miss_us", median(miss), len(miss))

	warm, err := segstore.Open(l.e.segPath, 0)
	if err != nil {
		return err
	}
	defer warm.Close()
	if col, err = factColumn(warm, "revenue"); err != nil {
		return err
	}
	walk := func() {
		for i := 0; i < col.NumBlocks(); i++ {
			_, release := col.AcquireBlock(i)
			release()
		}
	}
	walk() // fault every block in
	hit := timeMedian(cheapReps, walk)
	l.m.set("colstore.acquire_hit_ns", float64(hit)/float64(col.NumBlocks()), cheapReps)
	return nil
}
