// Command ssb-serve exposes one shared, buffer-managed SSBM database to
// concurrent clients over HTTP JSON.
//
// Usage:
//
//	ssb-serve -data ssb.seg -mem-budget 2 -addr :8080
//	ssb-serve -sf 0.05 -workers 4
//
// Endpoints:
//
//	GET/POST /query    one of id= (SSBM query id), sql= (SSBM dialect), or
//	                   seed= (seeded random plan); returns rows + per-query
//	                   cost (admission wait, CPU, logical I/O, total).
//	                   trace=1 adds a per-stage execution trace to the
//	                   response (cache hits carry none).
//	GET      /stats    server counters (cache, admission, logical I/O
//	                   totals) and buffer-pool state; printed once more
//	                   to stdout on shutdown.
//	GET      /metrics  Prometheus text exposition: query/cache/ingest
//	                   counters, pool and write-store gauges, admission-wait
//	                   and execution-latency histograms.
//
// -slow-ms N logs one compact trace line for every query slower than N
// milliseconds; -access-log logs one line per HTTP request. Both are off by
// default so benchmark serving pays nothing.
//
// Every request executes under its own context — a client that disconnects
// abandons its query at the next 64K-row block boundary, releasing all
// pinned segments. Admission control bounds the estimated footprint of
// concurrently executing queries so heavy traffic cannot thrash a small
// buffer pool into livelock; repeated queries are answered from a
// normalized-SQL-keyed result cache.
//
// End-to-end checks live in tests, not in this binary: `go test -race
// ./internal/server` (parallel golden and random-plan clients over HTTP,
// metrics and debug endpoints, inserts racing readers) and the benchmark's
// TestSmoke, which runs this binary out of process and verifies every
// answer.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/server"
)

func main() {
	sf := flag.Float64("sf", 0.1, "SSBM scale factor when generating (no -data)")
	dataPath := flag.String("data", "", "serve this segment store (written by ssb-gen -out)")
	memBudget := flag.Float64("mem-budget", 0, "buffer-pool budget in MB for segment-store -data files (0 = unbounded)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "per-query fused worker count")
	admitMB := flag.Float64("admit-mb", 0, "admission budget in MB (0 = pool budget if bounded, else 256)")
	cacheEntries := flag.Int("cache", 256, "result cache capacity in entries (negative disables)")
	ingest := flag.Bool("ingest", false, "enable the write path: POST /insert, snapshot-isolated queries, background compaction into the segment store")
	ingestMB := flag.Float64("ingest-mb", 0, "write-store memory cap in MB (0 = 256 MB default; inserts past it get 503 backpressure)")
	walPath := flag.String("wal", "", "write-ahead log path (requires -ingest and -data, whose footer is the log's checkpoint): inserts and deletes are durable before they are acked, and replayed on restart")
	walWindowMS := flag.Float64("wal-window-ms", 1, "group-commit window in milliseconds (0 = fsync per commit)")
	slowMS := flag.Float64("slow-ms", 0, "log a compact trace line for queries slower than this many milliseconds (0 disables)")
	accessLog := flag.Bool("access-log", false, "log one line per HTTP request (method, path, query selector, status, wait, latency)")
	debugAddr := flag.String("debug-addr", "", "opt-in debug listener (pprof + /debug/queries + /debug/summary + /metrics/history) on a separate address, e.g. 127.0.0.1:6060")
	flag.Parse()
	if *walPath != "" && (!*ingest || *dataPath == "") {
		fmt.Fprintln(os.Stderr, "-wal requires -ingest and -data")
		os.Exit(2)
	}

	var db *core.DB
	var err error
	if *dataPath != "" {
		// Route the store's recovery diagnostics through the daemon's own
		// log line format; the note also stays queryable on /stats for
		// operators who join after startup.
		db, err = core.OpenSegmentStoreWith(*dataPath, segstore.OpenOptions{
			MemBudget: int64(*memBudget * 1e6),
			Log: func(msg string) {
				fmt.Fprintf(os.Stderr, "ssb-serve: %s: %s\n", time.Now().Format(time.RFC3339), msg)
			},
		})
	} else {
		db = core.Open(*sf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	srv, err := server.New(db, server.Options{
		Workers:        *workers,
		AdmitBytes:     int64(*admitMB * 1e6),
		CacheEntries:   *cacheEntries,
		Ingest:         *ingest,
		IngestMaxBytes: int64(*ingestMB * 1e6),
		WALPath:        *walPath,
		WALWindow:      time.Duration(*walWindowMS * float64(time.Millisecond)),
		SlowQuery:      time.Duration(*slowMS * float64(time.Millisecond)),
		AccessLog:      *accessLog,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var ds *http.Server
	if *debugAddr != "" {
		// The debug surface gets its own listener so profiling and
		// debug-scrape traffic never competes with queries on the serving
		// port, and so operators can bind it loopback-only.
		ds = &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			}
		}()
		fmt.Printf("debug listener: http://%s/debug/pprof/\n", *debugAddr)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ds != nil {
			ds.Shutdown(ctx)
		}
		hs.Shutdown(ctx)
	}()

	fmt.Printf("ssb-serve: sf=%g engine=%s addr=%s\n", db.SF, srv.Config().Engine(), *addr)
	if st := db.SegmentStore(); st != nil {
		fmt.Printf("segment store: %s (%d segments, budget %s)\n",
			st.Path(), st.NumSegments(), budgetLabel(st.Pool().Budget()))
	}
	if *walPath != "" {
		ws := srv.DB().ColumnDB(true).WALStats()
		fmt.Printf("wal: %s (group-commit window %gms, %d records replayed)\n",
			*walPath, *walWindowMS, ws.Replayed)
	}
	err = hs.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		// Startup failure (bad address, port in use): no drain to wait for.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// ErrServerClosed means the signal goroutine called Shutdown; wait for
	// it to finish draining in-flight responses before tearing down.
	<-drained
	// Close drains in-flight queries, then (with -ingest) stops the tuple
	// mover and flushes every pending delta row into the store — the
	// zero-unflushed-loss guarantee of a clean SIGTERM.
	pending := srv.DB().ColumnDB(true).DeltaStats().PendingRows
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "flush on shutdown failed: %v\n", err)
		os.Exit(1)
	}
	if *ingest {
		fmt.Printf("write store drained: %d pending rows flushed\n", pending)
	}
	// The session summary is the final /stats document.
	if err := srv.Metrics().WriteJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// budgetLabel renders a pool budget.
func budgetLabel(b int64) string {
	if b <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%.1fMB", float64(b)/1e6)
}
