// Package server is the concurrent query-serving layer: many clients
// execute generalized ssb.Query plans against one shared, buffer-managed
// column store at once, with the three controls single-query execution
// never needed:
//
//   - Admission control. A FIFO byte-budget semaphore (admit.go) bounds the
//     estimated transient footprint (exec.DB.EstimateFootprint: pinned
//     segments + per-worker block scratch + dense aggregation arrays) of
//     the queries executing at any instant, so concurrent traffic cannot
//     thrash a small segstore.Pool into fetch-evict-refetch livelock.
//   - Cancellation. Every query runs under its caller's context (for HTTP,
//     the request context — a disconnected client is a canceled query), and
//     the executors' block loops observe it, so abandoned queries stop
//     acquiring segments within one block and leave zero pinned frames.
//   - Isolation. Each query owns its iosim.Stats and its fused-worker
//     scratch for the whole run; finished stats fold into shared
//     iosim.Atomic totals. Results are bit-identical to serial reference
//     execution no matter how queries interleave — the stress tests pin
//     exactly that.
//
// Two LRUs (cache.go) make a repeated /query request cost three map lookups
// and one Write. The plan cache maps the raw request text to its parsed plan
// and normalized SQL; it does not depend on data and survives writes. The
// result cache, keyed by (normalized SQL, data epoch), holds the answer and
// its rendered response fragment. On a frozen store the epoch never moves;
// with ingest enabled (Options.Ingest) every accepted insert or delete bumps
// it, so entries computed before a write stop being addressable and age out
// — queries after a write always reach the engine and see the write store.
package server

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// ErrClosed is returned by Execute after Close has begun.
var ErrClosed = errors.New("server: closed")

// defaultAdmitBytes bounds concurrent query footprint when neither the
// options nor a bounded pool budget say otherwise.
const defaultAdmitBytes = 256 << 20

// recorderEntries caps the flight recorder's ring (the last N completed
// queries, served at /debug/queries). The recorder is always on — its cost
// is one mutex acquisition and one struct copy per query.
const recorderEntries = 512

// historyEntries caps the metrics-history ring (periodic registry samples
// served at /metrics/history): an hour at the default cadence.
const historyEntries = 360

// Options configures a Server. Every query runs exec.FusedOpt — the serving
// path has one engine and no option selects another. The zero value serves
// it single-threaded with a 256-entry result cache and a footprint budget
// derived from the store.
type Options struct {
	// Workers is the per-query morsel worker count of the fused scan (0
	// means 1).
	Workers int
	// AdmitBytes is the admission semaphore's byte capacity: the total
	// estimated footprint allowed to execute concurrently. 0 derives it
	// from the segment store's pool budget when bounded, else 256 MB.
	AdmitBytes int64
	// CacheEntries caps the result cache (entries, not bytes); 0 means
	// 256, negative disables caching.
	CacheEntries int
	// Ingest enables the write path: /insert accepts row batches, queries
	// snapshot a consistent (sealed, delta) frontier, and a background
	// tuple mover compacts full 64K-row deltas into the segment store.
	Ingest bool
	// IngestMaxBytes caps write-store memory (0 means 256 MB; negative
	// unbounded). Inserts past the cap get backpressure (ErrWriteStoreFull
	// -> 503) until compaction drains.
	IngestMaxBytes int64
	// WALPath, when non-empty (and Ingest is on), attaches a write-ahead
	// log: an existing log at the path is replayed before serving, and
	// every accepted insert/delete is group-committed before acking.
	WALPath string
	// WALWindow is the group-commit window: how long a commit leader waits
	// for more batches to share its fsync. Zero syncs immediately.
	WALWindow time.Duration
	// SlowQuery, when positive, enables the slow-query log: every query
	// whose execution (admission wait excluded) takes at least this long is
	// logged as one compact trace line saying where the time went.
	SlowQuery time.Duration
	// AccessLog enables one log line per HTTP request (method, path, query
	// selector, status, admission wait, total latency). Off by default —
	// the serving benchmarks must not pay per-request logging.
	AccessLog bool
	// Logf receives slow-query and access-log lines; nil means log.Printf.
	Logf func(format string, args ...any)
	// HistoryInterval is the metrics-history sampling cadence. 0 means 10s;
	// negative disables the background sampler (tests drive Sample by hand,
	// and /metrics/history?sample=1 still works).
	HistoryInterval time.Duration
}

// Server executes queries from many goroutines against one shared DB.
type Server struct {
	db      *core.DB
	col     *exec.DB
	coreCfg core.Config
	cfgCode string // coreCfg.Col.Code(), for flight-recorder entries of hits
	sem     *byteSem
	cache   *lru[resultKey, *cacheEntry]
	plans   *lru[planKey, *planEntry]

	logical iosim.Atomic

	queries      atomic.Int64
	errors       atomic.Int64
	waits        atomic.Int64 // queries that blocked >1ms in admission
	waitNs       atomic.Int64 // total time all queries spent queued
	admitRejects atomic.Int64 // acquires that ended in cancellation
	inFlight     atomic.Int64

	ingest        bool
	inserts       atomic.Int64
	insertedRows  atomic.Int64
	deletes       atomic.Int64
	deletedRows   atomic.Int64
	wsFullRejects atomic.Int64 // inserts bounced on ErrWriteStoreFull
	retryAfters   atomic.Int64 // HTTP 503s that carried a Retry-After hint

	slowQuery time.Duration
	accessLog bool
	logf      func(format string, args ...any)

	metrics   *obs.Registry
	admitHist *obs.Histogram
	durHist   *obs.Histogram
	recorder  *obs.Recorder
	history   *obs.History
	start     time.Time

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// New builds a serving layer over db, which must serve the compressed
// column store (any in-memory build, or a segment store); the column DB is
// materialized eagerly so the first request doesn't pay the build.
func New(db *core.DB, opts Options) (*Server, error) {
	cfg := exec.FusedOpt
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	admit := opts.AdmitBytes
	if admit <= 0 {
		admit = defaultAdmitBytes
		if st := db.SegmentStore(); st != nil && st.Pool().Budget() > 0 {
			admit = st.Pool().Budget()
		}
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = 256
	}
	s := &Server{
		db:        db,
		col:       db.ColumnDB(true),
		coreCfg:   core.ColumnStore(cfg),
		sem:       newByteSem(admit),
		cfgCode:   cfg.Code(),
		cache:     newLRU[resultKey, *cacheEntry](entries),
		plans:     newLRU[planKey, *planEntry](planCacheEntries),
		slowQuery: opts.SlowQuery,
		accessLog: opts.AccessLog,
		logf:      opts.Logf,
		start:     time.Now(),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.recorder = obs.NewRecorder(recorderEntries)
	s.initMetrics()
	s.history = obs.NewHistory(s.metrics, historyEntries)
	if opts.Ingest {
		maxWS := opts.IngestMaxBytes
		if maxWS == 0 {
			maxWS = 256 << 20
		}
		if maxWS < 0 {
			maxWS = 0
		}
		if err := db.EnableIngestWAL(true, maxWS, opts.WALPath, wal.Options{Window: opts.WALWindow}); err != nil {
			return nil, err
		}
		s.ingest = true
	}
	// Start the history sampler last so no goroutine leaks when an earlier
	// option fails construction.
	if opts.HistoryInterval >= 0 {
		interval := opts.HistoryInterval
		if interval == 0 {
			interval = 10 * time.Second
		}
		s.history.Start(interval)
	}
	return s, nil
}

// Recorder exposes the always-on flight recorder (the HTTP layer's
// /debug/queries and /debug/summary render it; tests read it directly).
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// Insert appends a batch of logical lineorder rows to the write store,
// returning the new epoch. Concurrent with queries and other inserters; a
// query started before this call never observes the batch, one started
// after always does.
func (s *Server) Insert(b *ssb.Lineorders) (int64, error) {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return 0, ErrClosed
	}
	s.wg.Add(1)
	s.closeMu.RUnlock()
	defer s.wg.Done()
	if !s.ingest {
		return 0, fmt.Errorf("server: ingest is disabled (start with Options.Ingest)")
	}
	epoch, err := s.col.Insert(b)
	if err != nil {
		if errors.Is(err, exec.ErrWriteStoreFull) {
			s.wsFullRejects.Add(1)
		}
		return 0, err
	}
	s.inserts.Add(1)
	s.insertedRows.Add(int64(b.Len()))
	return epoch, nil
}

// Delete tombstones every visible row matching all the given fact-column
// predicates, returning the count deleted and the new epoch. Durable before
// return when the server runs with a WAL; concurrent with queries and
// inserts — a query started before this call sees none of the deletions,
// one started after sees all of them.
func (s *Server) Delete(filters []ssb.FactFilter) (int64, int64, error) {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return 0, 0, ErrClosed
	}
	s.wg.Add(1)
	s.closeMu.RUnlock()
	defer s.wg.Done()
	if !s.ingest {
		return 0, 0, fmt.Errorf("server: ingest is disabled (start with Options.Ingest)")
	}
	deleted, err := s.col.Delete(filters)
	if err != nil {
		return 0, 0, err
	}
	s.deletes.Add(1)
	s.deletedRows.Add(deleted)
	return deleted, s.col.Epoch(), nil
}

// Config returns the column configuration queries execute under.
func (s *Server) Config() core.Config { return s.coreCfg }

// DB returns the shared database.
func (s *Server) DB() *core.DB { return s.db }

// Response is one served query: the canonical result plus what it cost.
type Response struct {
	Result *ssb.Result
	// Stats is the run's cost. For a cache hit it is the cost of the run
	// that populated the entry; Cached distinguishes the two.
	Stats  core.RunStats
	Cached bool
	// Wait is the time spent blocked in admission (zero for cache hits).
	Wait time.Duration
}

// Execute runs one query plan. It is safe for any number of concurrent
// callers; each call owns its stats and scratch end to end. Cancellation
// of ctx abandons the query at the next block boundary (releasing all
// pinned segments) or, while still queued for admission, immediately.
func (s *Server) Execute(ctx context.Context, q *ssb.Query) (*Response, error) {
	var sql string
	if s.cache.enabled() {
		sql = q.SQL()
	}
	e, cached, wait, err := s.execute(ctx, q, sql)
	if err != nil {
		return nil, err
	}
	return &Response{Result: e.res, Stats: e.stats, Cached: cached, Wait: wait}, nil
}

// execute is Execute given q's normalized SQL (read only when the result
// cache is on), which the HTTP path renders once per distinct request text.
func (s *Server) execute(ctx context.Context, q *ssb.Query, sql string) (e *cacheEntry, cached bool, wait time.Duration, err error) {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, false, 0, ErrClosed
	}
	s.wg.Add(1)
	s.closeMu.RUnlock()
	defer s.wg.Done()

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.queries.Add(1)

	// The epoch is read once, *before* execution, for the lookup, the store
	// and the flight recorder alike. An insert landing mid-query may store a
	// result one epoch fresher than its label — indistinguishable from the
	// query having run an instant later; no entry serves a newer epoch.
	epoch := s.col.Epoch()
	key := resultKey{sql, epoch}
	if hit, ok := s.cache.get(key); ok {
		s.recorder.Record(obs.QueryRecord{
			UnixNano: time.Now().UnixNano(),
			Query:    q.ID,
			Engine:   "cache",
			Config:   s.cfgCode,
			Epoch:    epoch,
			Cached:   true,
		})
		return hit, true, 0, nil
	}

	weight := s.col.EstimateFootprint(q, s.coreCfg.Col.Workers)
	admitStart := time.Now()
	granted, err := s.sem.acquire(ctx, weight)
	if err != nil {
		s.admitRejects.Add(1)
		s.errors.Add(1)
		s.recorder.Record(obs.QueryRecord{
			UnixNano: time.Now().UnixNano(),
			Query:    q.ID,
			Epoch:    epoch,
			Error:    "admission: " + err.Error(),
			WaitNs:   int64(time.Since(admitStart)),
		})
		return nil, false, 0, err
	}
	wait = time.Since(admitStart)
	if wait > time.Millisecond {
		s.waits.Add(1)
	}
	s.waitNs.Add(int64(wait))
	s.admitHist.ObserveDuration(wait)
	defer s.sem.release(granted)

	// The flight recorder needs a trace for its stage-counter rollup, so
	// every run carries one: the caller's (a /query?trace=1 request), else
	// one attached here. The slow-query log reuses the same trace.
	runCtx := ctx
	tr := obs.FromContext(ctx)
	if tr == nil {
		tr = &obs.Trace{}
		runCtx = obs.WithTrace(ctx, tr)
	}
	execStart := time.Now()
	res, stats, err := s.db.RunPlanCtx(runCtx, q, s.coreCfg)
	dur := time.Since(execStart)
	s.durHist.ObserveDuration(dur)
	rec := obs.QueryRecord{
		UnixNano: time.Now().UnixNano(),
		Query:    q.ID,
		Engine:   tr.Engine,
		Config:   tr.Config,
		Workers:  tr.Workers,
		Epoch:    tr.Epoch,
		WaitNs:   int64(wait),
		ExecNs:   int64(dur),
		Totals:   tr.Totals(),
	}
	if err != nil {
		s.errors.Add(1)
		rec.Error = err.Error()
		s.recorder.Record(rec)
		return nil, false, 0, err
	}
	s.recorder.Record(rec)
	s.logical.AddStats(stats.IO)
	if s.slowQuery > 0 && dur >= s.slowQuery {
		s.logf("slow-query wait=%s %s", wait.Round(time.Microsecond), tr.CompactLine())
	}
	e = &cacheEntry{res: res, stats: stats}
	if s.cache.enabled() {
		e.frag = appendFragment(nil, sql, res)
		s.cache.put(key, e)
	}
	return e, false, wait, nil
}

// Close stops accepting queries and inserts, waits for every in-flight one
// (queued or executing) to finish, then — when the column store has a
// write store — stops the tuple mover and flushes every pending delta row
// into the read-optimized store, so a clean shutdown loses nothing: zero
// pinned frames, zero executor goroutines, zero unflushed delta. A caller
// that also cancels outstanding contexts gets the shutdown promptly.
func (s *Server) Close() error {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if already {
		return nil
	}
	s.history.Stop()
	s.wg.Wait()
	s.col.CloseDelta()
	err := s.col.FlushDelta()
	if werr := s.col.CloseWAL(); err == nil {
		err = werr
	}
	return err
}
