package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// queryResponse is the JSON shape of one served query as the reflective
// encoder rendered it before the append renderer replaced it. It stays here
// as the oracle: /query bodies must equal its encoding byte for byte.
type queryResponse struct {
	ID      string     `json:"id"`
	SQL     string     `json:"sql"`
	Rows    []queryRow `json:"rows"`
	Cached  bool       `json:"cached"`
	WaitNs  int64      `json:"wait_ns"`
	CPUNs   int64      `json:"cpu_ns"`
	IOBytes int64      `json:"io_bytes"`
	IOSeeks int64      `json:"io_seeks"`
	TotalNs int64      `json:"total_ns"`
	Trace   *obs.Trace `json:"trace,omitempty"`
}

// queryRow mirrors ssb.ResultRow with the aggregate list always explicit.
type queryRow struct {
	Keys []string `json:"keys,omitempty"`
	Aggs []int64  `json:"aggs"`
}

// oracleJSON is the old writeJSON body: encoding/json, HTML escaping off.
func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve sends one request straight through the handler.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

func sqlBody(t testing.TB, text string, trace bool) string {
	t.Helper()
	m := map[string]any{"sql": text}
	if trace {
		m["trace"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkOracle decodes a 200 /query body into the oracle struct, checks it
// against the reference answer, and requires the body to be exactly the
// oracle's encoding of what it decoded to — any byte the append renderer
// writes differently from encoding/json fails here.
func checkOracle(t *testing.T, label string, rec *httptest.ResponseRecorder, id, sql string, want *ssb.Result) queryResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", label, rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(body)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", label, got, len(body))
	}
	var got queryResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.ID != id || got.SQL != sql {
		t.Fatalf("%s: id=%q sql=%q, want %q / %q", label, got.ID, got.SQL, id, sql)
	}
	checkRows(t, label, got, want)
	if oracle := oracleJSON(t, got); !bytes.Equal(body, oracle) {
		t.Fatalf("%s: body differs from encoding/json\n got: %.300s\nwant: %.300s", label, body, oracle)
	}
	return got
}

// TestRenderDifferential pins the append renderer to the encoder it
// replaced, over the 13 SSBM queries and 200 random plans, as misses, as
// hits, with the result cache off (the fragment is rendered straight into
// the response) and with trace=1.
func TestRenderDifferential(t *testing.T) {
	srv, data, segDB := openSegServer(t, 0, Options{CacheEntries: 512})
	defer srv.Close()
	uncached, err := New(segDB, Options{CacheEntries: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	h, hu := srv.Handler(), uncached.Handler()

	var ungrouped, empty, multiAgg, traced int
	check := func(label string, q *ssb.Query, method, target, body string, trace bool) {
		want := ssb.Reference(data, q)
		id := q.ID
		if method == http.MethodPost {
			id = "http" // ad-hoc SQL is named by the front end
		}
		miss := checkOracle(t, label+" miss", serve(h, method, target, body), id, q.SQL(), want)
		hit := checkOracle(t, label+" hit", serve(h, method, target, body), id, q.SQL(), want)
		direct := checkOracle(t, label+" uncached", serve(hu, method, target, body), id, q.SQL(), want)
		if miss.Cached || !hit.Cached || direct.Cached {
			t.Fatalf("%s: cached = %t/%t/%t, want false/true/false", label, miss.Cached, hit.Cached, direct.Cached)
		}
		if hit.CPUNs != miss.CPUNs || hit.IOBytes != miss.IOBytes || hit.TotalNs != miss.TotalNs || hit.WaitNs != 0 {
			t.Fatalf("%s: a hit must report the populating run's cost: miss %+v hit %+v", label, miss, hit)
		}
		if (miss.Trace != nil) != trace || (direct.Trace != nil) != trace || hit.Trace != nil {
			t.Fatalf("%s: trace presence miss=%t hit=%t uncached=%t, want %t/false/%t",
				label, miss.Trace != nil, hit.Trace != nil, direct.Trace != nil, trace, trace)
		}
		if len(q.GroupBy) == 0 {
			ungrouped++
		}
		if len(want.Rows) == 0 {
			empty++
		}
		if len(q.AggSpecs()) > 1 {
			multiAgg++
		}
		if trace {
			traced++
		}
	}
	for i, q := range ssb.Queries() {
		target := "/query?id=" + q.ID
		if i%4 == 0 {
			target += "&trace=1"
		}
		check("Q"+q.ID, q, http.MethodGet, target, "", i%4 == 0)
	}
	for seed := int64(0); seed < 200; seed++ {
		q := ssb.RandQuery(seed)
		label := fmt.Sprintf("seed %d", seed)
		if seed%2 == 0 {
			check(label, q, http.MethodGet, fmt.Sprintf("/query?seed=%d", seed), "", false)
		} else {
			check(label, q, http.MethodPost, "/query", sqlBody(t, q.SQL(), seed%10 == 1), seed%10 == 1)
		}
	}
	none := *ssb.QueryByID("3.2")
	none.DimFilters = append([]ssb.DimFilter(nil), none.DimFilters...)
	none.DimFilters[0].StrA = "NO SUCH NATION"
	check("empty", &none, http.MethodPost, "/query", sqlBody(t, none.SQL(), false), false)
	if ungrouped == 0 || empty == 0 || multiAgg == 0 || traced == 0 {
		t.Fatalf("sample lost a shape: ungrouped=%d empty=%d multi-aggregate=%d traced=%d", ungrouped, empty, multiAgg, traced)
	}
}

// TestAppendQueryResponse compares the renderer with the oracle directly on
// strings no SSBM dictionary holds.
func TestAppendQueryResponse(t *testing.T) {
	nasty := []string{"", `q"uo\te`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<a href='x'>&</a>", "bad\xffutf8\xc3", "sep\u2028\u2029\ufffd", "日本語"}
	res := &ssb.Result{Rows: []ssb.ResultRow{
		ssb.MakeRow(nasty, []int64{-1 << 63, 0, 1<<63 - 1}),
		ssb.MakeRow(nil, []int64{7}),
	}}
	stats := core.RunStats{Wall: 12345, Total: 67890, IO: iosim.Stats{BytesRead: 1 << 40, Seeks: 3}}
	tr := &obs.Trace{Query: "x", SQL: "a < b & c > d", Engine: "fused", Stages: []obs.Stage{{Name: "plan", Detail: "<&>"}}}
	for _, id := range nasty {
		p := &planEntry{q: &ssb.Query{ID: id}, sql: id + " where x <> 'y'"}
		want := queryResponse{ID: id, SQL: p.sql, WaitNs: 99, CPUNs: 12345, IOBytes: 1 << 40, IOSeeks: 3, TotalNs: 67890, Trace: tr}
		for _, row := range res.Rows {
			want.Rows = append(want.Rows, queryRow{Keys: row.Keys, Aggs: row.AggValues()})
		}
		e := &cacheEntry{res: res, stats: stats}
		if got := appendQueryResponse(nil, p, e, false, 99, tr); !bytes.Equal(got, oracleJSON(t, want)) {
			t.Fatalf("miss, id %q:\n got: %s\nwant: %s", id, got, oracleJSON(t, want))
		}
		e.frag = appendFragment(nil, p.sql, res)
		want.Cached, want.WaitNs, want.Trace = true, 0, nil
		if got := appendQueryResponse([]byte("stale")[:0], p, e, true, 0, nil); !bytes.Equal(got, oracleJSON(t, want)) {
			t.Fatalf("hit, id %q:\n got: %s\nwant: %s", id, got, oracleJSON(t, want))
		}
	}
}

// FuzzAppendJSONString holds the string escaper to encoding/json's (with
// HTML escaping off, as /query always had it).
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "\x00\x1f\x7f", "\b\f\n\r\t", "\xff", "a\xc3", "\xe2\x80", "\u2028\u2029", "\ufffd", "<>&", "MFGR#12", "日本"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := bytes.TrimSuffix(oracleJSON(t, s), []byte("\n"))
		if got := appendJSONString([]byte("x"), s)[1:]; !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s want %s", s, got, want)
		}
	})
}

// TestPlanCacheIdentity: an id, its SQL text and the same text re-spaced
// are three plan-cache entries that share one result-cache entry, and each
// response carries its own id.
func TestPlanCacheIdentity(t *testing.T) {
	srv, data, _ := openSegServer(t, 0, Options{})
	defer srv.Close()
	h := srv.Handler()
	q := ssb.QueryByID("1.1")
	want := ssb.Reference(data, q)
	text := q.SQL()
	spaced := "  " + strings.ReplaceAll(text, " ", "\n\t ") + " "

	byID := checkOracle(t, "id", serve(h, http.MethodGet, "/query?id=1.1", ""), "1.1", text, want)
	bySQL := checkOracle(t, "sql", serve(h, http.MethodGet, "/query?sql="+url.QueryEscape(text), ""), "http", text, want)
	bySpaced := checkOracle(t, "spaced", serve(h, http.MethodPost, "/query", sqlBody(t, spaced, false)), "http", text, want)
	if byID.Cached || !bySQL.Cached || !bySpaced.Cached {
		t.Fatalf("cached = %t/%t/%t, want false/true/true", byID.Cached, bySQL.Cached, bySpaced.Cached)
	}
	if _, _, plans := srv.plans.counters(); plans != 3 {
		t.Fatalf("%d plan-cache entries, want 3", plans)
	}
	if _, _, results := srv.cache.counters(); results != 1 {
		t.Fatalf("%d result-cache entries, want 1", results)
	}
	// Same bytes, other method: parsed differently, so a different entry.
	if rec := serve(h, http.MethodPost, "/query", "id=1.1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST of a GET selector: status %d", rec.Code)
	}
}

// TestPlanCacheErrorsAndEviction: a request that fails to resolve gets the
// same 400 every time and leaves no entry; the plan cache holds at most
// planCacheEntries selectors and evicts the least recently used.
func TestPlanCacheErrorsAndEviction(t *testing.T) {
	srv, _, _ := openSegServer(t, 0, Options{})
	defer srv.Close()
	h := srv.Handler()

	for _, bad := range []struct{ method, target, body string }{
		{http.MethodGet, "/query?sql=selec+nonsense", ""},
		{http.MethodGet, "/query?id=9.9", ""},
		{http.MethodGet, "/query?seed=x", ""},
		{http.MethodGet, "/query?id=1.1&seed=7", ""},
		{http.MethodPost, "/query", `{"sql": "select sum(lo_nothing) from lineorder"}`},
		{http.MethodPost, "/query", `{"id": `},
	} {
		first := serve(h, bad.method, bad.target, bad.body)
		again := serve(h, bad.method, bad.target, bad.body)
		if first.Code != http.StatusBadRequest || again.Code != http.StatusBadRequest {
			t.Fatalf("%s %s %s: status %d then %d", bad.method, bad.target, bad.body, first.Code, again.Code)
		}
		var e map[string]string
		if err := json.Unmarshal(first.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("%s %s: not an error envelope: %s", bad.method, bad.target, first.Body)
		}
		if first.Body.String() != again.Body.String() {
			t.Fatalf("%s %s: answers differ: %s / %s", bad.method, bad.target, first.Body, again.Body)
		}
	}
	if _, _, n := srv.plans.counters(); n != 0 {
		t.Fatalf("%d plan-cache entries after only failed requests", n)
	}

	// Distinct selectors for one plan (unknown parameters are ignored), so
	// filling the cache costs one engine run.
	target := func(i int) string { return fmt.Sprintf("/query?id=1.1&n=%d", i) }
	for i := 0; i < planCacheEntries+10; i++ {
		if rec := serve(h, http.MethodGet, target(i), ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target(i), rec.Code)
		}
	}
	hits, misses, n := srv.plans.counters()
	if n != planCacheEntries || hits != 0 {
		t.Fatalf("plan cache: %d entries %d hits, want %d / 0", n, hits, planCacheEntries)
	}
	serve(h, http.MethodGet, target(planCacheEntries+9), "") // newest: still there
	serve(h, http.MethodGet, target(0), "")                  // oldest: evicted
	if h2, m2, _ := srv.plans.counters(); h2 != hits+1 || m2 != misses+1 {
		t.Fatalf("after newest+oldest: hits %d->%d misses %d->%d, want +1/+1", hits, h2, misses, m2)
	}
}

// TestQueryBodyLimits: /query bodies are capped like /insert's, and a
// selector too long to be worth retaining is served but not plan-cached.
func TestQueryBodyLimits(t *testing.T) {
	srv, data, _ := openSegServer(t, 0, Options{})
	defer srv.Close()
	h := srv.Handler()

	rec := serve(h, http.MethodPost, "/query", `{"sql": "`+strings.Repeat(" ", maxQueryBodyBytes)+`"}`)
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusRequestEntityTooLarge || err != nil || e["error"] == "" {
		t.Fatalf("oversized body: status %d body %s", rec.Code, rec.Body)
	}

	q := ssb.QueryByID("1.2")
	long := sqlBody(t, q.SQL()+strings.Repeat(" ", maxPlanKeyBytes), false)
	for i := 0; i < 2; i++ {
		checkOracle(t, "long selector", serve(h, http.MethodPost, "/query", long), "http", q.SQL(), ssb.Reference(data, q))
	}
	if hits, _, n := srv.plans.counters(); n != 0 || hits != 0 {
		t.Fatalf("a %d-byte selector was plan-cached (%d entries, %d hits)", len(long), n, hits)
	}
	if hits, _, _ := srv.cache.counters(); hits != 1 {
		t.Fatalf("result-cache hits %d, want 1: the long text's answer is still cacheable", hits)
	}
}

// TestSharedPlansConcurrent hammers the handler from 8 goroutines with the
// same 20 raw request texts, so every goroutine executes through the same
// cached *ssb.Query values (run under -race in CI); every answer must equal
// the reference.
func TestSharedPlansConcurrent(t *testing.T) {
	// A 4-entry result cache under 20 plans keeps the engine running on the
	// shared plans instead of serving everything from memory.
	srv, data, _ := openSegServer(t, 1<<20, Options{Workers: 2, CacheEntries: 4})
	defer srv.Close()
	h := srv.Handler()

	type request struct {
		method, target, body, id string
		q                        *ssb.Query
		want                     *ssb.Result
	}
	var reqs []request
	for i, q := range ssb.Queries()[:10] {
		if i%2 == 0 {
			reqs = append(reqs, request{method: http.MethodGet, target: "/query?id=" + q.ID, id: q.ID, q: q})
		} else {
			reqs = append(reqs, request{method: http.MethodPost, target: "/query", body: `{"id":"` + q.ID + `"}`, id: q.ID, q: q})
		}
	}
	for seed := int64(300); len(reqs) < 20; seed++ {
		q := ssb.RandQuery(seed)
		if len(q.GroupBy) > 2 {
			continue
		}
		if seed%2 == 0 {
			reqs = append(reqs, request{method: http.MethodGet, target: fmt.Sprintf("/query?seed=%d", seed), id: q.ID, q: q})
		} else {
			reqs = append(reqs, request{method: http.MethodPost, target: "/query", body: sqlBody(t, q.SQL(), false), id: "http", q: q})
		}
	}
	for i := range reqs {
		reqs[i].want = ssb.Reference(data, reqs[i].q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 3; round++ {
				for _, i := range rng.Perm(len(reqs)) {
					r := &reqs[i]
					rec := serve(h, r.method, r.target, r.body)
					var got queryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
						t.Errorf("%s %s %s: status %d: %v", r.method, r.target, r.body, rec.Code, err)
						return
					}
					if got.ID != r.id || len(got.Rows) != len(r.want.Rows) {
						t.Errorf("%s %s: id %q rows %d, want %q / %d", r.method, r.target, got.ID, len(got.Rows), r.id, len(r.want.Rows))
						return
					}
					for j, row := range got.Rows {
						w := r.want.Rows[j]
						if fmt.Sprint(row.Keys, row.Aggs) != fmt.Sprint(w.Keys, w.AggValues()) {
							t.Errorf("%s %s row %d: got %v=%v want %v=%v", r.method, r.target, j, row.Keys, row.Aggs, w.Keys, w.AggValues())
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, n := srv.plans.counters()
	if n != len(reqs) || hits+misses != 8*3*int64(len(reqs)) || hits < misses {
		t.Fatalf("plan cache: %d entries, %d hits, %d misses over %d requests of %d texts", n, hits, misses, 8*3*len(reqs), len(reqs))
	}
	if hits, misses, _ := srv.cache.counters(); misses <= int64(len(reqs)) || hits == 0 {
		t.Fatalf("result cache: %d hits %d misses — the engine did not re-run shared plans", hits, misses)
	}
}

// hotRequests is serve_hot's request set: the 13 queries by id and the
// first 87 random plans with at most two group-by attributes as POSTed SQL.
func hotRequests(tb testing.TB) (targets, bodies []string) {
	for _, q := range ssb.Queries() {
		targets, bodies = append(targets, "/query?id="+q.ID), append(bodies, "")
	}
	for seed := int64(0); len(targets) < 100; seed++ {
		if q := ssb.RandQuery(seed); len(q.GroupBy) <= 2 {
			targets, bodies = append(targets, "/query"), append(bodies, sqlBody(tb, q.SQL(), false))
		}
	}
	return targets, bodies
}

// discard is a reusable ResponseWriter that keeps nothing.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// hitRequest builds the cheapest faithful *http.Request for a target/body
// pair: what net/http hands a handler, minus the connection.
func hitRequest(target, body string) *http.Request {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err)
	}
	r := &http.Request{Method: http.MethodGet, URL: u, Body: http.NoBody}
	if body != "" {
		r.Method, r.Body = http.MethodPost, readCloser{strings.NewReader(body)}
	}
	return r
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

// BenchmarkHandlerHit is the serve_hot request mix (Zipf 1.1 over the 100
// requests) against a warmed server, through Handler() into a discarding
// writer: what one result-cache hit costs above net/http.
func BenchmarkHandlerHit(b *testing.B) {
	data := ssb.Generate(0.01)
	srv, err := New(core.OpenData(data), Options{HistoryInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	targets, bodies := hotRequests(b)
	w := &discard{h: http.Header{}}
	for i := range targets {
		if h.ServeHTTP(w, hitRequest(targets[i], bodies[i])); w.status != 0 {
			b.Fatalf("%s %s: status %d", targets[i], bodies[i], w.status)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(targets)-1))
	order := make([]int, 4096)
	for i := range order {
		order[i] = int(zipf.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := order[i%len(order)]
		h.ServeHTTP(w, hitRequest(targets[k], bodies[k]))
	}
	b.StopTimer()
	if hits, misses, _ := srv.cache.counters(); misses != int64(len(targets)) || hits != int64(b.N) {
		b.Fatalf("result cache: %d hits %d misses over %d timed requests of %d warmed texts", hits, misses, b.N, len(targets))
	}
}
