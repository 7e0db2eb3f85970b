package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/ssb"
)

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, client *http.Client, u string, out any) int {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", u, err)
	}
	return resp.StatusCode
}

// checkRows compares an HTTP response's rows to a reference result.
func checkRows(t *testing.T, label string, got queryResponse, want *ssb.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		w := want.Rows[i]
		if fmt.Sprint(row.Keys) != fmt.Sprint(w.Keys) || fmt.Sprint(row.Aggs) != fmt.Sprint(w.AggValues()) {
			t.Fatalf("%s row %d: got %v=%v want %v=%v", label, i, row.Keys, row.Aggs, w.Keys, w.AggValues())
		}
	}
}

// TestHTTPQueryEndpoints serves real traffic through the HTTP layer: the
// fixed queries by id, the same plans as ad-hoc SQL, seeded random plans,
// concurrent clients, and the stats endpoint. Every response must match the
// brute-force reference.
func TestHTTPQueryEndpoints(t *testing.T) {
	srv, data, _ := openSegServer(t, 1<<20, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// All 13 by id, then by their SQL text; id-then-SQL also exercises the
	// cache across selector forms (same normalized key).
	for _, q := range ssb.Queries() {
		want := ssb.Reference(data, q)
		var byID queryResponse
		if code := getJSON(t, ts.Client(), ts.URL+"/query?id="+q.ID, &byID); code != http.StatusOK {
			t.Fatalf("Q%s by id: status %d", q.ID, code)
		}
		checkRows(t, "Q"+q.ID+" by id", byID, want)

		var bySQL queryResponse
		u := ts.URL + "/query?sql=" + url.QueryEscape(q.SQL())
		if code := getJSON(t, ts.Client(), u, &bySQL); code != http.StatusOK {
			t.Fatalf("Q%s by sql: status %d", q.ID, code)
		}
		checkRows(t, "Q"+q.ID+" by sql", bySQL, want)
		if !bySQL.Cached {
			t.Fatalf("Q%s by sql: expected a cache hit after the id-form run", q.ID)
		}
	}

	// Seeded random plans from several concurrent clients.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := stressSeedBase + 500 + int64(i)
				q := ssb.RandQuery(seed)
				want := ssb.Reference(data, q)
				var got queryResponse
				u := fmt.Sprintf("%s/query?seed=%d", ts.URL, seed)
				if code := getJSON(t, ts.Client(), u, &got); code != http.StatusOK {
					t.Errorf("seed %d: status %d", seed, code)
					return
				}
				checkRows(t, fmt.Sprintf("seed %d", seed), got, want)
			}
		}(c)
	}
	wg.Wait()

	// Seed 0 is a valid plan (the selector is presence, not nonzero).
	var zero queryResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/query?seed=0", &zero); code != http.StatusOK {
		t.Fatalf("seed 0: status %d", code)
	}
	checkRows(t, "seed 0", zero, ssb.Reference(data, ssb.RandQuery(0)))

	// POST form.
	body := strings.NewReader(`{"id": "2.1"}`)
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var posted queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	checkRows(t, "POST 2.1", posted, ssb.Reference(data, ssb.QueryByID("2.1")))

	// Stats: queries counted, pool present for the segment-backed store,
	// nothing pinned between requests.
	var st statsDoc
	if code := getStrictJSON(t, ts.Client(), ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if st.Server.Queries == 0 || st.Server.CacheHits == 0 {
		t.Fatalf("stats show no traffic: %+v", st.Server)
	}
	if st.Pool == nil {
		t.Fatal("stats missing pool section for a segment-backed store")
	}
	if st.Pool.Pinned != 0 {
		t.Fatalf("%d frames pinned with no query in flight", st.Pool.Pinned)
	}

	// Error shapes.
	var e map[string]string
	if code := getJSON(t, ts.Client(), ts.URL+"/query?id=9.9", &e); code != http.StatusBadRequest {
		t.Fatalf("unknown id: status %d", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/query", &e); code != http.StatusBadRequest {
		t.Fatalf("no selector: status %d", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/query?sql=selec+nonsense", &e); code != http.StatusBadRequest {
		t.Fatalf("bad sql: status %d (%v)", code, e)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/query?id=1.1&seed=7", &e); code != http.StatusBadRequest {
		t.Fatalf("two selectors: status %d", code)
	}
}

// TestHTTPGroupSpaceOverflow: a GROUP BY too wide for the composite group
// index fails its one request with 422, the flight recorder keeps the
// error, and the server goes on answering.
func TestHTTPGroupSpaceOverflow(t *testing.T) {
	srv, data, _ := openSegServer(t, 1<<20, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wide := "select count(*) from lineorder, customer, supplier, dwdate where lo_custkey = c_custkey " +
		"and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and lo_quantity < 3 " +
		"group by d_date, d_yearmonthnum, d_daynuminyear, c_name, c_address, c_phone, s_name, s_address, s_phone"
	body, err := json.Marshal(queryRequest{SQL: wide})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v (the connection was dropped)", err)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e["error"], "GROUP BY") {
		t.Fatalf("status %d, body %v; want 422 naming the GROUP BY", resp.StatusCode, e)
	}
	if rec := srv.Recorder().Snapshot(1)[0]; !strings.Contains(rec.Error, "GROUP BY") {
		t.Errorf("flight recorder kept %+v; want the group-space error", rec)
	}

	var next queryResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/query?id=2.1", &next); code != http.StatusOK {
		t.Fatalf("next query: status %d", code)
	}
	checkRows(t, "Q2.1 after the refused query", next, ssb.Reference(data, ssb.QueryByID("2.1")))
}
