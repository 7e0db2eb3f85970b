// Command ssb-serve exposes one shared, buffer-managed SSBM database to
// concurrent clients over HTTP JSON.
//
// Usage:
//
//	ssb-serve -data ssb.seg -mem-budget 2 -addr :8080
//	ssb-serve -sf 0.05 -workers 4
//	ssb-serve -data ssb.seg -mem-budget 1 -golden internal/core/testdata/golden_sf001.json -clients 8
//
// Endpoints:
//
//	GET/POST /query    one of id= (SSBM query id), sql= (SSBM dialect), or
//	                   seed= (seeded random plan); returns rows + per-query
//	                   cost (admission wait, CPU, logical I/O, total).
//	                   trace=1 adds a per-stage execution trace to the
//	                   response (cache hits carry none).
//	GET      /stats    server counters (cache, admission, logical I/O
//	                   totals) and buffer-pool state.
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
// -golden runs the self-test used by CI instead of serving: it binds an
// ephemeral port, fires the 13-query golden suite from -clients parallel
// HTTP clients, verifies every response against the pinned golden file,
// checks that shutdown leaves zero pinned frames, and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.1, "SSBM scale factor when generating (no -data)")
	dataPath := flag.String("data", "", "serve this segment store (written by ssb-gen -out)")
	memBudget := flag.Float64("mem-budget", 0, "buffer-pool budget in MB for segment-store -data files (0 = unbounded)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "per-query fused worker count")
	admitMB := flag.Float64("admit-mb", 0, "admission budget in MB (0 = pool budget if bounded, else 256)")
	cacheEntries := flag.Int("cache", 256, "result cache capacity in entries (negative disables)")
	golden := flag.String("golden", "", "self-test: run the 13-query golden suite over HTTP against this golden JSON file, then exit")
	clients := flag.Int("clients", 8, "parallel clients for the -golden self-test")
	ingest := flag.Bool("ingest", false, "enable the write path: POST /insert, snapshot-isolated queries, background compaction into the segment store")
	ingestMB := flag.Float64("ingest-mb", 0, "write-store memory cap in MB (0 = 256 MB default; inserts past it get 503 backpressure)")
	walPath := flag.String("wal", "", "write-ahead log path (requires -ingest): inserts and deletes are durable before they are acked, and replayed on restart")
	walWindowMS := flag.Float64("wal-window-ms", 1, "group-commit window in milliseconds (0 = fsync per commit)")
	slowMS := flag.Float64("slow-ms", 0, "log a compact trace line for queries slower than this many milliseconds (0 disables)")
	accessLog := flag.Bool("access-log", false, "log one line per HTTP request (method, path, query selector, status, wait, latency)")
	debugAddr := flag.String("debug-addr", "", "opt-in debug listener (pprof + /debug/queries + /debug/summary + /metrics/history) on a separate address, e.g. 127.0.0.1:6060")
	flag.Parse()
	if *walPath != "" && !*ingest {
		fmt.Fprintln(os.Stderr, "-wal requires -ingest")
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

	cache := *cacheEntries
	if *golden != "" {
		// The self-test exists to exercise the shared engine under
		// parallel HTTP traffic; a warm cache would answer everything
		// after the first pass and verify nothing.
		cache = -1
	}
	srv, err := server.New(db, server.Options{
		Workers:        *workers,
		AdmitBytes:     int64(*admitMB * 1e6),
		CacheEntries:   cache,
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

	if *golden != "" {
		if err := goldenSelfTest(db, srv, *golden, *clients, *ingest, *dataPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
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
		ws := srv.DB().WALStats()
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
	pending := srv.DB().IngestStats().PendingRows
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "flush on shutdown failed: %v\n", err)
		os.Exit(1)
	}
	if *ingest {
		fmt.Printf("write store drained: %d pending rows flushed, %d total inserted\n",
			pending, srv.DB().Epoch())
	}
	printFinalStats(db, srv)
}

// budgetLabel renders a pool budget.
func budgetLabel(b int64) string {
	if b <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%.1fMB", float64(b)/1e6)
}

// printFinalStats summarizes a serving session on shutdown.
func printFinalStats(db *core.DB, srv *server.Server) {
	st := srv.Stats()
	fmt.Printf("served %d queries (%d errors), cache %d/%d hit/miss, %.1fMB logical read\n",
		st.Queries, st.Errors, st.CacheHits, st.CacheMisses, float64(st.Logical.BytesRead)/1e6)
	if seg := db.SegmentStore(); seg != nil {
		ps := seg.Pool().Stats()
		fmt.Printf("pool: hits=%d misses=%d evictions=%d disk-read=%.1fMB pinned=%d\n",
			ps.Hits, ps.Misses, ps.Evictions, float64(ps.BytesRead)/1e6, seg.Pool().PinnedFrames())
	}
}

// goldenRow mirrors the golden file's row schema (written by internal/core's
// golden tests; also read by ssb-query -golden).
type goldenRow struct {
	Keys []string `json:"keys,omitempty"`
	Aggs []int64  `json:"aggs"`
}

// goldenSelfTest serves on an ephemeral port and drives the golden suite
// through real HTTP from n parallel clients: gen -> serve -> parallel
// golden check -> clean shutdown, the CI smoke for the serving layer. With
// ingest enabled it then runs the write-path phase: concurrent /insert
// batches racing count(*) readers (each observed count must be a whole
// number of batches and monotone — the epoch snapshot guarantee over real
// HTTP), a drain that flushes every pending row, and a cold reopen of the
// data file proving zero unflushed-delta loss.
func goldenSelfTest(db *core.DB, srv *server.Server, goldenPath string, n int, ingest bool, dataPath string) error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("reading golden file: %w", err)
	}
	var g map[string][]goldenRow
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("golden file corrupt: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("golden self-test: %d clients x 13 queries against %s\n", n, base)

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, q := range ssb.Queries() {
				want, ok := g[q.ID]
				if !ok {
					errs <- fmt.Errorf("golden file has no entry for query %s", q.ID)
					return
				}
				if err := checkOne(base, q.ID, want); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	select {
	case err := <-errs:
		return err
	default:
	}
	// The suite just executed 13*n queries; the scrape must parse as
	// Prometheus text and show them in the counters and histograms.
	if err := checkMetrics(base); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	fmt.Println("/metrics scrape: parseable, required families present")
	if err := checkDebugSurface(base, 13*n); err != nil {
		return fmt.Errorf("debug surface: %w", err)
	}
	fmt.Println("/debug/queries, /debug/summary, /metrics/history: consistent with the suite that just ran")

	var inserted int64
	if ingest {
		var err error
		if inserted, err = ingestSelfTest(base, n); err != nil {
			return fmt.Errorf("ingest phase: %w", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("drain/flush: %w", err)
	}

	select {
	case err := <-errs:
		return err
	default:
	}
	if seg := db.SegmentStore(); seg != nil {
		if p := seg.Pool().PinnedFrames(); p != 0 {
			return fmt.Errorf("%d frames still pinned after shutdown", p)
		}
	}
	if ingest {
		if ds := srv.DB().IngestStats(); ds.PendingRows != 0 {
			return fmt.Errorf("%d delta rows still unflushed after drain", ds.PendingRows)
		}
		// Cold reopen: every inserted row must be in the file.
		if dataPath != "" {
			cold, err := core.OpenSegmentStore(dataPath, 0)
			if err != nil {
				return fmt.Errorf("reopening %s after drain: %w", dataPath, err)
			}
			got := cold.ColumnDB(true).NumRows()
			want := int(srv.DB().IngestStats().TotalRows)
			cold.SegmentStore().Close()
			if got != want {
				return fmt.Errorf("cold reopen of %s has %d rows, want %d (unflushed-delta loss)", dataPath, got, want)
			}
			fmt.Printf("cold reopen: %s holds all %d rows (%d inserted this run)\n", dataPath, got, inserted)
		}
	}
	st := srv.Stats()
	fmt.Printf("golden self-test passed: %d engine executions (cache disabled), clean shutdown, zero pinned frames\n",
		st.Queries)
	return nil
}

// checkMetrics scrapes /metrics and validates the exposition strictly
// enough that a real Prometheus scraper would accept it: every non-comment
// line is "name[{labels}] value" with a parseable float, every sample name
// was declared by a preceding # TYPE, the required families exist, and the
// query counter and latency histogram reflect the golden suite that just
// ran.
func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	declared := map[string]bool{}
	values := map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			return fmt.Errorf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			declared[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value: %q", ln+1, line)
		}
		sample := line[:sp]
		name := sample
		if b := strings.IndexByte(sample, '{'); b >= 0 {
			if !strings.HasSuffix(sample, "}") {
				return fmt.Errorf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = sample[:b]
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && declared[cut] {
				fam = cut
				break
			}
		}
		if !declared[fam] {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		values[sample] = v
	}
	for _, fam := range []string{
		"ssb_queries_total", "ssb_query_errors_total",
		"ssb_cache_hits_total", "ssb_cache_misses_total",
		"ssb_admission_rejects_total", "ssb_pool_evictions_total",
		"ssb_pool_resident_bytes", "ssb_pool_resident_logical_bytes",
		"ssb_pool_pinned_frames", "ssb_ws_pending_bytes",
		"ssb_query_duration_seconds", "ssb_admission_wait_seconds",
	} {
		if !declared[fam] {
			return fmt.Errorf("required family %s missing", fam)
		}
	}
	if values["ssb_queries_total"] <= 0 {
		return fmt.Errorf("ssb_queries_total is %g after the golden suite", values["ssb_queries_total"])
	}
	if values["ssb_query_duration_seconds_count"] != values["ssb_queries_total"] {
		return fmt.Errorf("duration histogram count %g != queries %g",
			values["ssb_query_duration_seconds_count"], values["ssb_queries_total"])
	}
	if values[`ssb_query_duration_seconds_bucket{le="+Inf"}`] != values["ssb_query_duration_seconds_count"] {
		return fmt.Errorf("+Inf bucket %g != histogram count %g",
			values[`ssb_query_duration_seconds_bucket{le="+Inf"}`], values["ssb_query_duration_seconds_count"])
	}
	return nil
}

// checkDebugSurface validates the flight-recorder and metrics-history
// endpoints against the golden suite that just ran: the recorder retains
// records in newest-first order, the summary's windowed counts cover the
// suite, and a forced history sample carries the query counter.
func checkDebugSurface(base string, ran int) error {
	var dq struct {
		Count   int `json:"count"`
		Queries []struct {
			Seq    int64  `json:"seq"`
			Query  string `json:"query"`
			Engine string `json:"engine"`
			ExecNs int64  `json:"exec_ns"`
		} `json:"queries"`
	}
	if err := getJSON(base+"/debug/queries?n=20", &dq); err != nil {
		return fmt.Errorf("/debug/queries: %w", err)
	}
	if dq.Count == 0 || dq.Count != len(dq.Queries) {
		return fmt.Errorf("/debug/queries: count %d vs %d records", dq.Count, len(dq.Queries))
	}
	for i, q := range dq.Queries {
		if q.Query == "" || q.Engine == "" || q.ExecNs <= 0 {
			return fmt.Errorf("/debug/queries: degenerate record %d: %+v", i, q)
		}
		if i > 0 && q.Seq >= dq.Queries[i-1].Seq {
			return fmt.Errorf("/debug/queries: records not newest-first at %d", i)
		}
	}
	var sum struct {
		Count int   `json:"count"`
		Runs  int   `json:"runs"`
		P50Ns int64 `json:"p50_ns"`
		P99Ns int64 `json:"p99_ns"`
	}
	if err := getJSON(base+"/debug/summary?window=600", &sum); err != nil {
		return fmt.Errorf("/debug/summary: %w", err)
	}
	if sum.Count < ran || sum.Runs < ran {
		return fmt.Errorf("/debug/summary: count=%d runs=%d after %d golden executions", sum.Count, sum.Runs, ran)
	}
	if sum.P50Ns <= 0 || sum.P99Ns < sum.P50Ns {
		return fmt.Errorf("/debug/summary: p50=%d p99=%d", sum.P50Ns, sum.P99Ns)
	}
	var hist struct {
		Samples []struct {
			UnixNano int64              `json:"unix_nano"`
			Values   map[string]float64 `json:"values"`
		} `json:"samples"`
		Rates map[string]float64 `json:"rates"`
		Types map[string]string  `json:"types"`
	}
	if err := getJSON(base+"/metrics/history?sample=1", &hist); err != nil {
		return fmt.Errorf("/metrics/history: %w", err)
	}
	if len(hist.Samples) == 0 {
		return fmt.Errorf("/metrics/history: no samples after sample=1")
	}
	newest := hist.Samples[len(hist.Samples)-1]
	if newest.Values["ssb_queries_total"] < float64(ran) {
		return fmt.Errorf("/metrics/history: sampled ssb_queries_total %g after %d executions",
			newest.Values["ssb_queries_total"], ran)
	}
	if hist.Types["ssb_queries_total"] != "counter" {
		return fmt.Errorf("/metrics/history: ssb_queries_total typed %q", hist.Types["ssb_queries_total"])
	}
	return nil
}

// getJSON fetches u and decodes the JSON body into out.
func getJSON(u string, out any) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// countStar fetches select count(*) over HTTP.
func countStar(base string) (int64, error) {
	resp, err := http.Get(base + "/query?sql=" + url.QueryEscape("select count(*) from lineorder"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("count(*): status %d", resp.StatusCode)
	}
	var body struct {
		Rows []goldenRow `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if len(body.Rows) != 1 || len(body.Rows[0].Aggs) != 1 {
		return 0, fmt.Errorf("count(*): unexpected shape %+v", body.Rows)
	}
	return body.Rows[0].Aggs[0], nil
}

// ingestSelfTest drives the write path over real HTTP: inserters posting
// equal-size seeded batches race count(*) readers; every observed count
// must be the base plus a whole number of batches (insert atomicity +
// snapshot isolation) and monotone per reader. Returns the rows inserted.
func ingestSelfTest(base string, n int) (int64, error) {
	const batchRows = 6000
	const batchesPerStream = 3
	streams := n
	if streams > 4 {
		streams = 4
	}
	count0, err := countStar(base)
	if err != nil {
		return 0, err
	}
	total := int64(streams * batchesPerStream * batchRows)
	fmt.Printf("ingest phase: %d insert streams x %d batches x %d rows racing %d count(*) readers (base %d rows)\n",
		streams, batchesPerStream, batchRows, streams, count0)

	stop := make(chan struct{})
	errs := make(chan error, 2*streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := 0; b < batchesPerStream; b++ {
				body := fmt.Sprintf(`{"seed":%d,"count":%d}`, int64(s)*1000+int64(b), batchRows)
				resp, err := http.Post(base+"/insert", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if !ok {
					errs <- fmt.Errorf("insert stream %d: status %d", s, resp.StatusCode)
					return
				}
			}
		}(s)
	}
	var rwg sync.WaitGroup
	for r := 0; r < streams; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			last := count0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := countStar(base)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if c < last {
					errs <- fmt.Errorf("reader %d: count went backwards (%d -> %d)", r, last, c)
					return
				}
				if (c-count0)%batchRows != 0 {
					errs <- fmt.Errorf("reader %d: count %d is not base+k*%d — a query observed a torn insert", r, c, batchRows)
					return
				}
				last = c
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	final, err := countStar(base)
	if err != nil {
		return 0, err
	}
	if final != count0+total {
		return 0, fmt.Errorf("final count %d, want %d (base %d + %d inserted)", final, count0+total, count0, total)
	}
	fmt.Printf("ingest phase passed: count(*) reached %d, all observations batch-aligned and monotone\n", final)
	return total, nil
}

// checkOne fetches one query over HTTP and compares rows to the golden.
func checkOne(base, id string, want []goldenRow) error {
	resp, err := http.Get(base + "/query?id=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("Q%s: status %d", id, resp.StatusCode)
	}
	// The /query row shape matches the golden row schema, so decode
	// straight into it.
	var body struct {
		Rows []goldenRow `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("Q%s: %w", id, err)
	}
	if len(body.Rows) != len(want) {
		return fmt.Errorf("Q%s: %d rows, golden has %d", id, len(body.Rows), len(want))
	}
	for i, w := range want {
		r := body.Rows[i]
		if fmt.Sprint(w.Keys) != fmt.Sprint(r.Keys) || fmt.Sprint(w.Aggs) != fmt.Sprint(r.Aggs) {
			return fmt.Errorf("Q%s row %d: got %v=%v, golden %v=%v", id, i, r.Keys, r.Aggs, w.Keys, w.Aggs)
		}
	}
	return nil
}
