package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ssb"
)

// logCapture is a concurrency-safe Logf sink for asserting on slow-query
// and access-log lines.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

func (c *logCapture) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// scrape fetches /metrics and returns the parsed samples and the declared
// families as "name type" in exposition order, failing the test on anything
// a Prometheus scraper would reject: an empty line, a malformed # TYPE, an
// unparseable value, an unterminated label set, or a sample whose family
// (after stripping a histogram's _bucket/_sum/_count) no preceding # TYPE
// declared.
func scrape(t *testing.T, ts *httptest.Server) (map[string]float64, []string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var fams []string
	values := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d is empty", i+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d malformed TYPE: %q", i+1, line)
			}
			declared[f[2]] = true
			fams = append(fams, f[2]+" "+f[3])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d has no value: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d value unparseable: %q", i+1, line)
		}
		sample := line[:sp]
		name := sample
		if b := strings.IndexByte(sample, '{'); b >= 0 {
			if !strings.HasSuffix(sample, "}") {
				t.Fatalf("line %d unterminated labels: %q", i+1, line)
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
			t.Fatalf("line %d sample %q has no preceding # TYPE", i+1, name)
		}
		values[sample] = v
	}
	return values, fams
}

// TestMetricsEndpoint drives real traffic and pins the scrape against the
// server's own /stats counters: queries, cache hits, and the execution
// histogram must reflect exactly what ran.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Same query twice: one engine execution, one cache hit.
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/query?id=1.1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}

	v, fams := scrape(t, ts)
	// Every family, its type and the exposition order are frozen.
	want := []string{
		"ssb_queries_total counter",
		"ssb_query_errors_total counter",
		"ssb_cache_hits_total counter",
		"ssb_cache_misses_total counter",
		"ssb_admission_rejects_total counter",
		"ssb_inserts_total counter",
		"ssb_inserted_rows_total counter",
		"ssb_deletes_total counter",
		"ssb_deleted_rows_total counter",
		"ssb_ws_full_rejects_total counter",
		"ssb_retry_after_sent_total counter",
		"ssb_wal_fsyncs_total counter",
		"ssb_pool_evictions_total counter",
		"ssb_in_flight_queries gauge",
		"ssb_cache_entries gauge",
		"ssb_pool_resident_bytes gauge",
		"ssb_pool_resident_logical_bytes gauge",
		"ssb_pool_mapped_bytes gauge",
		"ssb_pool_spare_bytes gauge",
		"ssb_pool_pinned_frames gauge",
		"ssb_dict_bytes gauge",
		"ssb_ws_pending_bytes gauge",
		"ssb_ws_pending_rows gauge",
		"ssb_query_duration_seconds histogram",
		"ssb_admission_wait_seconds histogram",
	}
	if strings.Join(fams, "\n") != strings.Join(want, "\n") {
		t.Fatalf("families:\n%s\nwant:\n%s", strings.Join(fams, "\n"), strings.Join(want, "\n"))
	}
	if v["ssb_queries_total"] != 2 || v["ssb_cache_hits_total"] != 1 || v["ssb_cache_misses_total"] != 1 {
		t.Fatalf("counters: queries=%g hits=%g misses=%g",
			v["ssb_queries_total"], v["ssb_cache_hits_total"], v["ssb_cache_misses_total"])
	}
	// The histogram sees engine executions only (the cache hit skips it),
	// and its +Inf bucket equals its count.
	if v["ssb_query_duration_seconds_count"] != 1 {
		t.Fatalf("duration count %g, want 1", v["ssb_query_duration_seconds_count"])
	}
	if v[`ssb_query_duration_seconds_bucket{le="+Inf"}`] != v["ssb_query_duration_seconds_count"] {
		t.Fatal("+Inf bucket != count")
	}
	if v["ssb_pool_resident_bytes"] <= 0 {
		t.Fatalf("pool resident %g after a segment-backed query", v["ssb_pool_resident_bytes"])
	}
	// Scrape-time reads: one more query moves the counter with no metric
	// bookkeeping on the query path.
	resp, err := ts.Client().Get(ts.URL + "/query?id=2.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v2, _ := scrape(t, ts); v2["ssb_queries_total"] != 3 {
		t.Fatalf("second scrape queries=%g, want 3", v2["ssb_queries_total"])
	}
}

// TestQueryTraceParam pins /query?trace=1: an engine execution returns the
// per-stage trace, a cache hit returns none (the cached entry's run
// predates the request).
func TestQueryTraceParam(t *testing.T) {
	srv, data, _ := openSegServer(t, 1<<20, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var first queryResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/query?id=1.1&trace=1", &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached || first.Trace == nil {
		t.Fatalf("first run: cached=%t trace=%v", first.Cached, first.Trace)
	}
	if first.Trace.Engine == "" || len(first.Trace.Stages) == 0 {
		t.Fatalf("degenerate trace: %+v", first.Trace)
	}
	var tot obs.StageCounters
	for _, s := range first.Trace.Stages {
		tot.Add(s.StageCounters)
	}
	if tot.BytesRead != first.IOBytes {
		t.Fatalf("trace bytes %d != response io_bytes %d", tot.BytesRead, first.IOBytes)
	}
	checkRows(t, "traced", first, ssb.Reference(data, ssb.QueryByID("1.1")))

	var second queryResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/query?id=1.1&trace=1", &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.Cached || second.Trace != nil {
		t.Fatalf("cache hit: cached=%t trace=%v", second.Cached, second.Trace)
	}
	// Untraced requests must never pay for or carry a trace.
	var plain queryResponse
	getJSON(t, ts.Client(), ts.URL+"/query?id=2.1", &plain)
	if plain.Trace != nil {
		t.Fatal("untraced request returned a trace")
	}
}

// TestSlowQueryLog sets the threshold to zero-ish so every engine run is
// "slow" and must emit one compact line carrying the plan shape.
func TestSlowQueryLog(t *testing.T) {
	cap := &logCapture{}
	srv, _, _ := openSegServer(t, 1<<20, Options{SlowQuery: time.Nanosecond, Logf: cap.logf})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/query?id=1.1", "/query?id=1.1", "/query?id=3.2&trace=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	lines := cap.all()
	// Three requests, but the second was a cache hit: two engine runs, two
	// slow lines (the traced request reuses its own trace).
	var slow []string
	for _, l := range lines {
		if strings.Contains(l, "slow-query") {
			slow = append(slow, l)
		}
	}
	if len(slow) != 2 {
		t.Fatalf("got %d slow lines, want 2: %q", len(slow), lines)
	}
	for _, l := range slow {
		if !strings.Contains(l, "engine=") || !strings.Contains(l, "stages=[") {
			t.Fatalf("slow line missing trace content: %q", l)
		}
	}
	if !strings.Contains(slow[0], "query=1.1") || !strings.Contains(slow[1], "query=3.2") {
		t.Fatalf("slow lines name the wrong queries: %q", slow)
	}
}

// TestAccessLog pins the per-request line: method, path, resolved
// selector, status, and that disabling it (the default) logs nothing.
func TestAccessLog(t *testing.T) {
	cap := &logCapture{}
	srv, _, _ := openSegServer(t, 1<<20, Options{AccessLog: true, Logf: cap.logf})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/query?id=1.1", "/query?sql=select+count%28%2A%29+from+lineorder", "/stats", "/query?id=nope"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	lines := cap.all()
	if len(lines) != 4 {
		t.Fatalf("got %d access lines, want 4: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "access 200 GET /query q=1.1") {
		t.Fatalf("id line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "q=sql=") || strings.Contains(lines[1], "count(") {
		t.Fatalf("sql line must carry a hash, not the text: %q", lines[1])
	}
	if !strings.Contains(lines[2], "access 200 GET /stats") {
		t.Fatalf("stats line: %q", lines[2])
	}
	if !strings.Contains(lines[3], "access 400 GET /query") {
		t.Fatalf("bad-request line: %q", lines[3])
	}

	quiet := &logCapture{}
	srv2, _, _ := openSegServer(t, 1<<20, Options{Logf: quiet.logf})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/query?id=1.1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := len(quiet.all()); n != 0 {
		t.Fatalf("access log off but %d lines logged", n)
	}
}

// TestBackpressureCounters extends the 503/Retry-After contract with its
// accounting: the server must count both the ErrWriteStoreFull rejections
// and the Retry-After responses, in /stats and /metrics alike.
func TestBackpressureCounters(t *testing.T) {
	srv, _ := newIngestServer(t, Options{CacheEntries: -1, IngestMaxBytes: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/insert", "application/json",
			bytes.NewBufferString(`{"seed":5,"count":2500}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("first insert: %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			t.Fatalf("insert over cap: %d", code)
		}
	}
	st := readStats(t, srv).Server
	if st.WSFullRejects != 2 || st.RetryAfterSent != 2 {
		t.Fatalf("ws_full_rejects=%d retry_after_sent=%d, want 2/2", st.WSFullRejects, st.RetryAfterSent)
	}
	v, _ := scrape(t, ts)
	if v["ssb_ws_full_rejects_total"] != 2 || v["ssb_retry_after_sent_total"] != 2 {
		t.Fatalf("metrics: ws_full=%g retry_after=%g", v["ssb_ws_full_rejects_total"], v["ssb_retry_after_sent_total"])
	}
	if v["ssb_inserts_total"] != 1 {
		t.Fatalf("accepted inserts %g, want 1", v["ssb_inserts_total"])
	}
}
