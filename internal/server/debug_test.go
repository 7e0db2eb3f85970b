package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// getStrictJSON fetches u and decodes the body into out rejecting unknown
// fields, so the wire shape and the Go mirror can't drift apart silently.
func getStrictJSON(t *testing.T, client *http.Client, u string, out any) int {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("GET %s: strict decode: %v", u, err)
	}
	return resp.StatusCode
}

// TestDebugQueriesEndpoint drives an engine run, a cache hit, and a failed
// query, then pins the flight recorder's wire shape: newest first, the hit
// marked cached with engine "cache", the failure carrying its error, the
// run carrying engine/config/workers and a non-empty counter rollup.
func TestDebugQueriesEndpoint(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{Workers: 2, HistoryInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/query?id=1.1",  // engine run
		"/query?id=1.1",  // cache hit
		"/query?id=nope", // selector failures never reach Execute
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var out debugQueriesResponse
	if code := getStrictJSON(t, ts.Client(), ts.URL+"/debug/queries?n=10", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// The bad-SQL request failed at parse, before Execute: two records.
	if out.Count != 2 || len(out.Queries) != 2 {
		t.Fatalf("count=%d queries=%d, want 2 records", out.Count, len(out.Queries))
	}
	hit, run := out.Queries[0], out.Queries[1]
	if hit.Seq <= run.Seq {
		t.Fatalf("not newest-first: seq %d then %d", hit.Seq, run.Seq)
	}
	if !hit.Cached || hit.Engine != "cache" || hit.Query != "1.1" {
		t.Fatalf("cache-hit record: %+v", hit)
	}
	if run.Cached || run.Engine == "" || run.Config == "" || run.Workers < 1 {
		t.Fatalf("engine record: %+v", run)
	}
	if run.ExecNs <= 0 || run.Totals.RowsIn == 0 || run.Totals.BytesRead == 0 {
		t.Fatalf("engine record has a degenerate rollup: %+v", run)
	}
	if run.UnixNano <= 0 || hit.UnixNano < run.UnixNano {
		t.Fatalf("timestamps: run=%d hit=%d", run.UnixNano, hit.UnixNano)
	}

	// An execution-level failure (unknown column reaches the engine? no —
	// use an admission-style failure via a canceled context is unit-level).
	// The wire contract for errors is covered by the recorder unit tests;
	// here pin that n= bounds the response.
	var one debugQueriesResponse
	getStrictJSON(t, ts.Client(), ts.URL+"/debug/queries?n=1", &one)
	if one.Count != 1 || one.Queries[0].Seq != hit.Seq {
		t.Fatalf("n=1: %+v", one)
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/queries?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d", resp.StatusCode)
	}
}

// TestDebugSummaryEndpoint pins /debug/summary: the rollup must reflect
// the traffic just driven, bucketed by engine×flight.
func TestDebugSummaryEndpoint(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{HistoryInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, id := range []string{"1.1", "1.2", "4.1", "1.1"} { // last is a hit
		resp, err := ts.Client().Get(ts.URL + "/query?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var sum struct {
		WindowNs  int64 `json:"window_ns"`
		Count     int   `json:"count"`
		Errors    int   `json:"errors"`
		CacheHits int   `json:"cache_hits"`
		Runs      int   `json:"runs"`
		P50Ns     int64 `json:"p50_ns"`
		P95Ns     int64 `json:"p95_ns"`
		P99Ns     int64 `json:"p99_ns"`
		Groups    []struct {
			Engine    string `json:"engine"`
			Flight    string `json:"flight"`
			Count     int    `json:"count"`
			Errors    int    `json:"errors"`
			CacheHits int    `json:"cache_hits"`
			Runs      int    `json:"runs"`
			P50Ns     int64  `json:"p50_ns"`
			P95Ns     int64  `json:"p95_ns"`
			P99Ns     int64  `json:"p99_ns"`
			MaxNs     int64  `json:"max_ns"`
			MeanNs    int64  `json:"mean_ns"`
		} `json:"groups"`
	}
	if code := getStrictJSON(t, ts.Client(), ts.URL+"/debug/summary", &sum); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if sum.WindowNs != int64(60*time.Second) {
		t.Fatalf("default window %d", sum.WindowNs)
	}
	if sum.Count != 4 || sum.CacheHits != 1 || sum.Errors != 0 || sum.Runs != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.P50Ns <= 0 || sum.P99Ns < sum.P50Ns {
		t.Fatalf("percentiles: p50=%d p99=%d", sum.P50Ns, sum.P99Ns)
	}
	// Flights 1 and 4 ran on the engine; the hit lands in a "cache" group.
	var flights []string
	for _, g := range sum.Groups {
		flights = append(flights, g.Engine+"/"+g.Flight)
	}
	joined := strings.Join(flights, " ")
	if !strings.Contains(joined, "cache/1") || !strings.Contains(joined, "/4") {
		t.Fatalf("groups: %v", flights)
	}
	// A zero-width future window is empty.
	var empty struct {
		WindowNs  int64           `json:"window_ns"`
		Count     int             `json:"count"`
		Errors    int             `json:"errors"`
		CacheHits int             `json:"cache_hits"`
		Runs      int             `json:"runs"`
		P50Ns     int64           `json:"p50_ns"`
		P95Ns     int64           `json:"p95_ns"`
		P99Ns     int64           `json:"p99_ns"`
		Groups    json.RawMessage `json:"groups"`
	}
	getStrictJSON(t, ts.Client(), ts.URL+"/debug/summary?window=0.000001", &empty)
	if empty.Count != 0 {
		t.Fatalf("microsecond window saw %d records", empty.Count)
	}
}

// TestMetricsHistoryEndpoint pins /metrics/history: ?sample=1 forces a
// fresh reading, counters are monotone across samples, rates appear once
// two samples exist, and types classify every series.
func TestMetricsHistoryEndpoint(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{HistoryInterval: -1, CacheEntries: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := func(id string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/query?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var h historyResponse
	run("1.1")
	if code := getStrictJSON(t, ts.Client(), ts.URL+"/metrics/history?sample=1", &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(h.Samples) != 1 || len(h.Rates) != 0 {
		t.Fatalf("first poll: %d samples, %d rates", len(h.Samples), len(h.Rates))
	}
	run("2.1")
	run("3.1")
	getStrictJSON(t, ts.Client(), ts.URL+"/metrics/history?sample=1", &h)
	if len(h.Samples) != 2 {
		t.Fatalf("second poll: %d samples", len(h.Samples))
	}
	first, second := h.Samples[0], h.Samples[1]
	if second.UnixNano <= first.UnixNano {
		t.Fatal("samples not in time order")
	}
	for name, typ := range h.Types {
		if typ != "counter" && typ != "gauge" {
			t.Fatalf("series %s has type %q", name, typ)
		}
		if typ == "counter" && second.Values[name] < first.Values[name] {
			t.Fatalf("counter %s went backwards: %g -> %g", name, first.Values[name], second.Values[name])
		}
	}
	if d := second.Values["ssb_queries_total"] - first.Values["ssb_queries_total"]; d != 2 {
		t.Fatalf("queries delta %g, want 2", d)
	}
	if _, ok := h.Rates["ssb_queries_total"]; !ok {
		t.Fatal("no rate for ssb_queries_total with two samples")
	}
	if h.Rates["ssb_queries_total"] <= 0 {
		t.Fatalf("qps rate %g", h.Rates["ssb_queries_total"])
	}
	if _, ok := h.Rates["ssb_in_flight_queries"]; ok {
		t.Fatal("gauge got a rate")
	}
	// Histogram expansion shows up as _count/_sum counter series.
	if h.Types["ssb_query_duration_seconds_count"] != "counter" {
		t.Fatalf("histogram count series type %q", h.Types["ssb_query_duration_seconds_count"])
	}
	// n= bounds the samples returned.
	getStrictJSON(t, ts.Client(), ts.URL+"/metrics/history?n=1", &h)
	if len(h.Samples) != 1 || h.Samples[0].UnixNano != second.UnixNano {
		t.Fatalf("n=1 returned %d samples", len(h.Samples))
	}
}

// TestQueryCachedField pins the explicit "cached" key in raw /query JSON —
// true on a result-cache hit, false on an engine run — and that the
// recorder logged the hit as such.
func TestQueryCachedField(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{HistoryInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/query?id=2.2")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := raw(); !strings.Contains(body, `"cached":false`) {
		t.Fatalf("engine run body lacks \"cached\":false: %.200s", body)
	}
	if body := raw(); !strings.Contains(body, `"cached":true`) {
		t.Fatalf("cache-hit body lacks \"cached\":true: %.200s", body)
	}
	recs := srv.Recorder().Snapshot(1)
	if len(recs) != 1 || !recs[0].Cached || recs[0].Engine != "cache" {
		t.Fatalf("recorder's newest record is not the cache hit: %+v", recs)
	}
}

// TestStatsUptimeGoroutines pins the /stats liveness basics ssb-top reads.
func TestStatsUptimeGoroutines(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{HistoryInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, key := range []string{`"uptime_seconds":`, `"goroutines":`} {
		if !strings.Contains(body, key) {
			t.Fatalf("/stats lacks %s: %.300s", key, body)
		}
	}
	var parsed statsDoc
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Server.UptimeSeconds <= 0 {
		t.Fatalf("uptime %g", parsed.Server.UptimeSeconds)
	}
	if parsed.Server.Goroutines < 2 {
		t.Fatalf("goroutines %d", parsed.Server.Goroutines)
	}
}

// TestDebugHandlerPprof pins the separate debug surface: pprof index and a
// heap profile respond, and the observability endpoints ride along.
func TestDebugHandlerPprof(t *testing.T) {
	srv, _, _ := openSegServer(t, 1<<20, Options{HistoryInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	for _, path := range []string{
		"/debug/pprof/", "/debug/pprof/heap?debug=1",
		"/debug/queries", "/debug/summary", "/metrics/history", "/stats", "/metrics",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
