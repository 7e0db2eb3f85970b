package server

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/segstore"
)

// initMetrics builds the registry that /metrics, /metrics/history and
// /stats all render. Each number is registered once: its Prometheus name
// (CounterFunc/GaugeFunc) and its /stats key, the dotted path of a frozen
// JSON name that the benchmark and ssb-top decode (ValueFunc for what only
// /stats shows). Every number is a closure over state the server already
// maintains (its atomics, the cache, the buffer pool, the write store),
// read at render time — serving traffic pays nothing for the endpoints'
// existence. Only the two latency histograms are populated on the query
// path, two atomic adds per query.
//
// Pool- and ingest-backed families register unconditionally and report zero
// when the store is in-memory or ingest is off, so the exposition shape is
// stable across deployments and scrapers never see families come and go.
// /stats reports the same numbers inside the "pool", "server.delta" and
// "server.wal" objects; "pool" is absent for an in-memory store.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.metrics = r
	seg := s.db.SegmentStore()
	pool := func() segstore.PoolStats {
		if seg == nil {
			return segstore.PoolStats{}
		}
		return seg.Pool().Stats()
	}

	r.ValueFunc("server.uptime_seconds", func() any { return time.Since(s.start).Seconds() })
	r.ValueFunc("server.goroutines", func() any { return runtime.NumGoroutine() })
	r.CounterFunc("ssb_queries_total", "server.queries", "Execute calls accepted, including cache hits and failed runs.",
		s.queries.Load)
	r.CounterFunc("ssb_query_errors_total", "server.errors", "Queries that returned an error (admission cancellation included).",
		s.errors.Load)
	r.CounterFunc("ssb_cache_hits_total", "server.cache_hits", "Result-cache hits.",
		func() int64 { h, _, _ := s.cache.counters(); return h })
	r.CounterFunc("ssb_cache_misses_total", "server.cache_misses", "Result-cache misses.",
		func() int64 { _, m, _ := s.cache.counters(); return m })
	r.ValueFunc("server.admit_waits", func() any { return s.waits.Load() })
	r.ValueFunc("server.admit_wait_ns", func() any { return s.waitNs.Load() })
	r.CounterFunc("ssb_admission_rejects_total", "server.admit_rejects", "Admission waits that ended in cancellation instead of a grant.",
		s.admitRejects.Load)
	r.ValueFunc("server.admit_bytes", func() any { return s.sem.cap })
	r.ValueFunc("server.logical_io", func() any { return s.logical.Snapshot() })
	r.CounterFunc("ssb_inserts_total", "server.inserts", "Accepted insert batches.", s.inserts.Load)
	r.CounterFunc("ssb_inserted_rows_total", "server.inserted_rows", "Rows across accepted insert batches.", s.insertedRows.Load)
	r.CounterFunc("ssb_deletes_total", "server.deletes", "Accepted delete operations.", s.deletes.Load)
	r.CounterFunc("ssb_deleted_rows_total", "server.deleted_rows", "Rows tombstoned by accepted deletes.", s.deletedRows.Load)
	r.ValueFunc("server.delta", func() any { return s.col.DeltaStats() })
	r.CounterFunc("ssb_ws_full_rejects_total", "server.ws_full_rejects", "Inserts bounced because the write store hit its byte cap.",
		s.wsFullRejects.Load)
	r.CounterFunc("ssb_retry_after_sent_total", "server.retry_after_sent", "HTTP 503 responses that carried a Retry-After backpressure hint.",
		s.retryAfters.Load)
	r.ValueFunc("server.wal", func() any { return s.col.WALStats() })
	r.CounterFunc("ssb_wal_fsyncs_total", "", "WAL fsyncs (group commits); zero when no WAL is attached.",
		func() int64 { return s.col.WALStats().Syncs })
	r.CounterFunc("ssb_pool_evictions_total", "", "Buffer-pool frame evictions; zero for in-memory stores.",
		func() int64 { return pool().Evictions })

	r.GaugeFunc("ssb_in_flight_queries", "server.in_flight", "Queries currently executing or queued for admission.",
		s.inFlight.Load)
	r.GaugeFunc("ssb_cache_entries", "server.cache_entries", "Result-cache entries resident.",
		func() int64 { _, _, e := s.cache.counters(); return int64(e) })
	r.GaugeFunc("ssb_pool_resident_bytes", "", "Compressed payload bytes resident in the buffer pool.",
		func() int64 { return pool().Resident })
	r.GaugeFunc("ssb_pool_resident_logical_bytes", "", "Decoded (4 B/value) size of the pool's resident working set.",
		func() int64 { return pool().ResidentLogical })
	r.GaugeFunc("ssb_pool_mapped_bytes", "", "Page-rounded payload buffers the buffer pool owns outside the Go heap: resident frames, spares and reads in flight.",
		func() int64 { return pool().Mapped })
	r.GaugeFunc("ssb_pool_spare_bytes", "", "Page-rounded payload buffers the buffer pool keeps for reuse after their frames left.",
		func() int64 { return pool().Spare })
	r.GaugeFunc("ssb_pool_pinned_frames", "", "Buffer-pool frames currently pinned by executing queries.",
		func() int64 {
			if seg == nil {
				return 0
			}
			return int64(seg.Pool().PinnedFrames())
		})
	dictBytes := s.col.DictBytes()
	r.GaugeFunc("ssb_dict_bytes", "server.dict_bytes", "Bytes every dictionary of the store holds: each one string of its values plus its offsets.",
		func() int64 { return dictBytes })
	r.GaugeFunc("ssb_ws_pending_bytes", "", "Write-store bytes awaiting compaction; zero when ingest is off.",
		func() int64 { return s.col.DeltaStats().PendingBytes })
	r.GaugeFunc("ssb_ws_pending_rows", "", "Write-store rows awaiting compaction; zero when ingest is off.",
		func() int64 { return s.col.DeltaStats().PendingRows })

	r.ValueFunc("pool", func() any {
		if seg == nil {
			return nil
		}
		return struct {
			segstore.PoolStats
			Budget int64 `json:"budget"`
			Pinned int   `json:"pinned_frames"`
		}{seg.Pool().Stats(), seg.Pool().Budget(), seg.Pool().PinnedFrames()}
	})
	// The segment store's torn-tail recovery diagnostic, set when Open
	// discarded a corrupted append and fell back to the previous valid
	// directory, so the evidence outlives the daemon's startup log.
	r.ValueFunc("recovery", func() any {
		if seg == nil || seg.RecoveryNote() == "" {
			return nil
		}
		return seg.RecoveryNote()
	})

	// 100µs..~3.3s and 10µs..~5.2s: log-spaced so the histogram stays 16
	// buckets while covering cache-warm sub-millisecond queries and
	// admission stalls behind a heavy scan alike.
	s.durHist = r.NewHistogram("ssb_query_duration_seconds",
		"Query execution latency (admission wait excluded); cache hits not observed.",
		obs.ExpBuckets(100e-6, 2, 16))
	s.admitHist = r.NewHistogram("ssb_admission_wait_seconds",
		"Time queries spent queued in admission control before their grant.",
		obs.ExpBuckets(10e-6, 2, 20))
}

// Metrics exposes the registry (the HTTP layer's /metrics and /stats render
// it; tests scrape it directly).
func (s *Server) Metrics() *obs.Registry { return s.metrics }
