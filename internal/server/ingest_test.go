package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ssb"
)

// countQ is the count(*) probe the ingest tests observe epochs through.
var countQ = &ssb.Query{ID: "count", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}}

// newIngestServer builds a segment-backed server with the write path on.
func newIngestServer(t *testing.T, opts Options) (*Server, *ssb.Data) {
	t.Helper()
	opts.Ingest = true
	srv, data, _ := openSegServer(t, 0, opts)
	return srv, data
}

// TestInsertVisibilityAndCacheEpoch pins the serving-layer write-path
// contract: a query after an insert sees it, the result cache never serves
// a pre-insert entry for a post-insert query (epoch keying), and repeated
// queries within one epoch still hit. Over HTTP the plan cache is not keyed
// by epoch: the repeated text skips parsing after the insert and only the
// result lookup misses.
func TestInsertVisibilityAndCacheEpoch(t *testing.T) {
	srv, data := newIngestServer(t, Options{CacheEntries: 32})
	defer srv.Close()
	base := int64(data.NumLineorders())
	ctx := context.Background()

	r1, err := srv.Execute(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Result.Rows[0].Aggs[0] != base || r1.Cached {
		t.Fatalf("first count: agg=%d cached=%v, want %d/false", r1.Result.Rows[0].Aggs[0], r1.Cached, base)
	}
	r2, err := srv.Execute(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("same-epoch repeat was not served from cache")
	}
	h := srv.Handler()
	countBody := sqlBody(t, "select  count(*)  from lineorder", false)
	checkOracle(t, "pre-insert count", serve(h, http.MethodPost, "/query", countBody), "http", countQ.SQL(), r1.Result)

	shape, err := srv.DB().ColumnDB(true).BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(3, 2500, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Insert(batch); err != nil {
		t.Fatal(err)
	}

	r3, err := srv.Execute(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("post-insert query served from the pre-insert cache entry — epoch keying broken")
	}
	if got := r3.Result.Rows[0].Aggs[0]; got != base+2500 {
		t.Fatalf("post-insert count %d, want %d", got, base+2500)
	}
	planHits, planMisses, _ := srv.plans.counters()
	_, resultMisses, _ := srv.cache.counters()
	again := checkOracle(t, "post-insert count", serve(h, http.MethodPost, "/query", countBody), "http", countQ.SQL(), r3.Result)
	if !again.Cached {
		t.Fatal("post-insert repeat of an in-process answer was not a result-cache hit")
	}
	if rec := srv.Recorder().Snapshot(1)[0]; rec.Epoch != 2500 || !rec.Cached {
		t.Fatalf("flight-recorder entry of the hit: %+v, want epoch 2500", rec)
	}
	batch2, err := ssb.RandBatch(4, 100, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Insert(batch2); err != nil {
		t.Fatal(err)
	}
	want := ssb.NewResult("count", []ssb.ResultRow{ssb.MakeRow(nil, []int64{base + 2600})})
	if fresh := checkOracle(t, "second insert", serve(h, http.MethodPost, "/query", countBody), "http", countQ.SQL(), want); fresh.Cached {
		t.Fatal("HTTP query after an insert served from the pre-insert entry")
	}
	if hits, misses, _ := srv.plans.counters(); hits != planHits+2 || misses != planMisses {
		t.Fatalf("plan cache across inserts: hits %d->%d misses %d->%d, want +2/+0", planHits, hits, planMisses, misses)
	}
	if _, misses, _ := srv.cache.counters(); misses != resultMisses+1 {
		t.Fatalf("result-cache misses %d->%d, want +1 (the post-insert lookup)", resultMisses, misses)
	}
	st := readStats(t, srv).Server
	if st.Inserts != 2 || st.InsertedRows != 2600 || !st.Delta.Enabled || st.Delta.Epoch != 2600 {
		t.Fatalf("stats after insert: %+v", st)
	}
}

// TestInsertHTTP drives the write path through the real HTTP surface:
// seeded batches, explicit rows, validation failures, and /stats shape.
func TestInsertHTTP(t *testing.T) {
	srv, data := newIngestServer(t, Options{CacheEntries: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := data.NumLineorders()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	if code, out := post(`{"seed":9,"count":1500}`); code != http.StatusOK || out["inserted"].(float64) != 1500 {
		t.Fatalf("seeded insert: code=%d out=%v", code, out)
	}
	row := `{"rows":[{"custkey":1,"suppkey":1,"partkey":1,"orderdate":19940105,"quantity":9,"extendedprice":5000,"discount":2,"revenue":4900,"supplycost":3000}]}`
	if code, out := post(row); code != http.StatusOK || out["inserted"].(float64) != 1 {
		t.Fatalf("row insert: code=%d out=%v", code, out)
	}
	if code, out := post(`{"rows":[{"custkey":999999999,"suppkey":1,"partkey":1,"orderdate":19940105}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad custkey accepted: code=%d out=%v", code, out)
	}
	if code, _ := post(`{"seed":1,"rows":[{"custkey":1}]}`); code != http.StatusBadRequest {
		t.Fatalf("ambiguous selector accepted: code=%d", code)
	}

	resp, err := http.Get(ts.URL + "/query?sql=select+count(*)+from+lineorder")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rows []struct {
			Aggs []int64 `json:"aggs"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := body.Rows[0].Aggs[0], int64(base+1501); got != want {
		t.Fatalf("HTTP count after inserts = %d, want %d", got, want)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Server struct {
			Inserts int64 `json:"inserts"`
			Delta   struct {
				Enabled     bool  `json:"enabled"`
				PendingRows int64 `json:"pending_rows"`
			} `json:"delta"`
		} `json:"server"`
		Pool struct {
			Appends int64 `json:"appends"`
		} `json:"pool"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Server.Inserts != 2 || !stats.Server.Delta.Enabled || stats.Server.Delta.PendingRows != 1501 {
		t.Fatalf("/stats shape: %+v", stats.Server)
	}
}

// FuzzDeleteBody posts arbitrary bytes to /delete on one ingest server
// (SF=0.002 segment store plus one inserted batch) and replays every
// accepted delete on a brute-force mirror of the same rows. The handler
// must answer 200, 400 or 422 and never panic; a 200 must report exactly
// the rows the mirror's DeleteWhere removes. The server lives as long as
// the fuzz target (f.TempDir, f.Cleanup), so state carries across inputs on
// both sides alike.
func FuzzDeleteBody(f *testing.F) {
	for _, body := range []string{
		`{"filters":[{"col":"quantity","op":"lt","a":-2147483648}]}`,
		`{"filters":[{"col":"discount","op":"between","a":9,"b":2}]}`,
		`{"filters":[{"col":"quantity","op":"in","values":[7,7,3,7]}]}`,
		`{"filters":[{"col":"orderdate","op":"between","a":19940101,"b":19940331},{"col":"quantity","op":"ge","a":40}]}`,
		`{"filters":[{"col":"orderdate","op":"lt","a":19920301},{"col":"orderdate","op":"ge","a":19920215}]}`,
		`{"filters":[{"col":"revenue","op":"ge","a":2147483647}]}`,
		`{"filters":[{"col":"custkey","op":"eq","a":1}]}`,
		`{"filters":[{"col":"quantity","op":"frob"}]}`,
		`{"filters":[]}`,
		`{"filters":[{"col":"tax","op":"eq","a":3}]} trailing`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	srv, mirror, _ := openSegServerSF(f, 0.002, 0, Options{Ingest: true, CacheEntries: -1})
	f.Cleanup(func() { srv.Close() })
	shape, err := srv.DB().ColumnDB(true).BatchShape()
	if err != nil {
		f.Fatal(err)
	}
	batch, err := ssb.RandBatch(5, 3000, shape)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := srv.Insert(batch); err != nil {
		f.Fatal(err)
	}
	mirror.AppendBatch(batch)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(h, http.MethodPost, "/delete", string(body))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("%q: status %d (%s), want 200, 400 or 422", body, rec.Code, rec.Body)
		}
		// Accepted: decode the body as the handler did (first JSON value).
		var req deleteRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%q: accepted, but does not decode: %v", body, err)
		}
		filters := make([]ssb.FactFilter, len(req.Filters))
		for i, df := range req.Filters {
			pred, err := df.pred()
			if err != nil {
				t.Fatalf("%q: accepted, but filter %d is invalid: %v", body, i, err)
			}
			filters[i] = ssb.FactFilter{Col: df.Col, Pred: pred}
		}
		var out deleteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%q: response %s: %v", body, rec.Body, err)
		}
		if want := mirror.DeleteWhere(filters); out.Deleted != want {
			t.Fatalf("%q: deleted %d rows, mirror deleted %d", body, out.Deleted, want)
		}
	})
}

// countRevenueQ is select count(*), sum(lo_revenue) from lineorder.
var countRevenueQ = &ssb.Query{ID: "count-revenue", Aggs: []ssb.AggSpec{
	{Func: ssb.FuncCount}, {Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}}

// FuzzInsertBody POSTs arbitrary bytes to /insert on one ingest server: the
// handler answers 200, 400, 422 or 503 and never panics. An accepted batch
// moves count(*) and sum(lo_revenue) by exactly the body's rows and revenue
// (seeded bodies regenerated with ssb.RandBatch); a rejected one lands no
// row, so the epoch does not move.
func FuzzInsertBody(f *testing.F) {
	srv, data, _ := openSegServerSF(f, 0.002, 0, Options{Ingest: true, CacheEntries: -1})
	f.Cleanup(func() { srv.Close() })
	col := srv.DB().ColumnDB(true)
	shape, err := col.BatchShape()
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	// row renders one valid explicit row with fields overridden; encoding/json
	// keeps the last of duplicate keys, so overrides follow the defaults.
	row := func(override string) string {
		r := `{"custkey":1,"suppkey":1,"partkey":1,"orderdate":19940105,"quantity":9,"extendedprice":5000,"discount":2,"revenue":4900,"supplycost":3000`
		if override != "" {
			r += "," + override
		}
		return r + "}"
	}
	for _, body := range []string{
		`{"rows":[` + row(`"custkey":0`) + `]}`,
		`{"rows":[` + row(fmt.Sprintf(`"custkey":%d`, len(data.Customer.Key)+1)) + `]}`,
		`{"rows":[` + row(`"orderdate":19920230`) + `]}`,
		`{"rows":[` + row(`"shipmode":"BOAT"`) + `]}`,
		`{"rows":[` + row(`"ordpriority":""`) + `]}`,
		`{"rows":[` + row(`"ordpriority":"1-URGENT","shipmode":"MAIL","revenue":-7`) + `,` + row("") + `]}`,
		`{"rows":[` + row("") + `,` + row(`"shipmode":"BOAT"`) + `,` + row(`"partkey":0`) + `]}`,
		`{"seed":9,"rows":[` + row("") + `]}`,
		`{"seed":9,"count":-5}`,
		`{"seed":11,"count":40}`,
		`{"seed":12,"count":3} trailing`,
		`not json`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req insertRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		if decoded && req.Seed != nil && req.Count > 10000 {
			t.Skip("seeded batch past the harness's 10 000-row memory bound")
		}
		measure := func() (rows, revenue int64) {
			resp, err := srv.Execute(context.Background(), countRevenueQ)
			if err != nil {
				t.Fatal(err)
			}
			v := resp.Result.Rows[0].AggValues()
			return v[0], v[1]
		}
		rows0, rev0 := measure()
		epoch0 := col.Epoch()

		rec := serve(h, http.MethodPost, "/insert", string(body))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
			if e := col.Epoch(); e != epoch0 {
				t.Fatalf("%q: status %d, but the epoch moved %d -> %d", body, rec.Code, epoch0, e)
			}
			return
		default:
			t.Fatalf("%q: status %d (%s), want 200, 400, 422 or 503", body, rec.Code, rec.Body)
		}
		if !decoded {
			t.Fatalf("%q: accepted, but does not decode", body)
		}
		var wantRows, wantRev int64
		if req.Seed != nil {
			n := req.Count
			if n <= 0 {
				n = 1000
			}
			b, err := ssb.RandBatch(*req.Seed, n, shape)
			if err != nil {
				t.Fatal(err)
			}
			wantRows = int64(b.Len())
			for _, v := range b.Revenue {
				wantRev += int64(v)
			}
		} else {
			wantRows = int64(len(req.Rows))
			for _, r := range req.Rows {
				wantRev += int64(r.Revenue)
			}
		}
		var out insertResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%q: response %s: %v", body, rec.Body, err)
		}
		if int64(out.Inserted) != wantRows {
			t.Fatalf("%q: inserted %d rows, the body holds %d", body, out.Inserted, wantRows)
		}
		rows1, rev1 := measure()
		if rows1-rows0 != wantRows || rev1-rev0 != wantRev {
			t.Fatalf("%q: count(*) moved %d and sum(lo_revenue) %d, want %d and %d",
				body, rows1-rows0, rev1-rev0, wantRows, wantRev)
		}
	})
}

// TestDeleteHTTP drives deletion vectors through the real HTTP surface
// with a WAL attached: count before, /delete a value predicate, count
// after (zero), idempotent re-delete, validation failures, and the /stats
// durability counters.
func TestDeleteHTTP(t *testing.T) {
	srv, _ := newIngestServer(t, Options{
		CacheEntries: -1,
		WALPath:      filepath.Join(t.TempDir(), "ingest.wal"),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	shape, err := srv.DB().ColumnDB(true).BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(17, 3000, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Insert(batch); err != nil {
		t.Fatal(err)
	}

	qtyQ := &ssb.Query{ID: "qty30", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}},
		FactFilters: []ssb.FactFilter{{Col: "quantity", Pred: compress.Eq(30)}}}
	pre, err := srv.Execute(ctx, qtyQ)
	if err != nil {
		t.Fatal(err)
	}
	matching := pre.Result.Rows[0].Aggs[0]
	if matching == 0 {
		t.Fatal("no rows with quantity=30; the fixture lost its value domain")
	}
	total, err := srv.Execute(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/delete", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	code, out := post(`{"filters":[{"col":"quantity","op":"eq","a":30}]}`)
	if code != http.StatusOK || int64(out["deleted"].(float64)) != matching {
		t.Fatalf("delete: code=%d out=%v, want 200/%d deleted", code, out, matching)
	}
	after, err := srv.Execute(ctx, qtyQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Result.Rows[0].Aggs[0]; got != 0 {
		t.Fatalf("post-delete quantity=30 count %d, want 0", got)
	}
	afterTotal, err := srv.Execute(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := afterTotal.Result.Rows[0].Aggs[0], total.Result.Rows[0].Aggs[0]-matching; got != want {
		t.Fatalf("post-delete count(*) %d, want %d", got, want)
	}
	// Idempotent: the same predicate now tombstones nothing.
	if code, out := post(`{"filters":[{"col":"quantity","op":"eq","a":30}]}`); code != http.StatusOK || out["deleted"].(float64) != 0 {
		t.Fatalf("re-delete: code=%d out=%v, want 200/0 deleted", code, out)
	}
	// Validation: empty conjunction and non-identity columns are rejected.
	if code, _ := post(`{"filters":[]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("empty filter list accepted: code=%d", code)
	}
	if code, _ := post(`{"filters":[{"col":"custkey","op":"eq","a":1}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("delete by remapped FK column accepted: code=%d", code)
	}
	if code, _ := post(`{"filters":[{"col":"quantity","op":"frob","a":1}]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown op accepted: code=%d", code)
	}

	// Two accepted operations (the second tombstoned nothing), one batch of
	// rows actually removed.
	st := readStats(t, srv).Server
	if st.Deletes != 2 || st.DeletedRows != matching {
		t.Fatalf("stats after delete: deletes=%d deleted_rows=%d, want 2/%d", st.Deletes, st.DeletedRows, matching)
	}
	if !st.WAL.Enabled || st.WAL.Appends == 0 || st.WAL.Syncs == 0 {
		t.Fatalf("WAL stats not surfaced: %+v", st.WAL)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Server struct {
			Deletes int64 `json:"deletes"`
			WAL     struct {
				Enabled bool  `json:"enabled"`
				Appends int64 `json:"appends"`
			} `json:"wal"`
		} `json:"server"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Server.Deletes != 2 || !stats.Server.WAL.Enabled || stats.Server.WAL.Appends == 0 {
		t.Fatalf("/stats durability shape: %+v", stats.Server)
	}
}

// TestInsertBackpressureRetryAfter pins the 503 + Retry-After contract:
// once the write store is over its byte cap, /insert tells well-behaved
// clients how long to pace off instead of hammering.
func TestInsertBackpressureRetryAfter(t *testing.T) {
	// A 1-byte cap: the first insert lands (the store is empty), every
	// subsequent one bounces until compaction drains — which a 2.5K-row
	// delta never triggers (64K block threshold), so the 503 is stable.
	srv, _ := newIngestServer(t, Options{CacheEntries: -1, IngestMaxBytes: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/insert", "application/json",
			bytes.NewBufferString(`{"seed":5,"count":2500}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first insert into an empty store: %d, want 200", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert over cap: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 backpressure response carries no Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
	}
}

// TestIngestDisabled pins the 501 for /insert on a read-only server.
func TestIngestDisabled(t *testing.T) {
	srv, _, _ := openSegServer(t, 0, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewBufferString(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert on read-only server: %d, want 501", resp.StatusCode)
	}
}

// TestConcurrentInsertQueryStress races inserters against query clients on
// one shared server (run with -race in CI): every count observation must be
// batch-aligned and monotone, the final state must account for every row,
// and Close must flush the remainder with zero pinned frames, so that a cold
// reopen of the segment file holds every row.
func TestConcurrentInsertQueryStress(t *testing.T) {
	srv, data := newIngestServer(t, Options{Workers: 2, CacheEntries: 64})
	base := int64(data.NumLineorders())
	shape, err := srv.DB().ColumnDB(true).BatchShape()
	if err != nil {
		t.Fatal(err)
	}

	const inserters = 3
	const batches = 6
	const batchRows = 4000
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, inserters+4)
	for i := 0; i < inserters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch, err := ssb.RandBatch(int64(i*100+b), batchRows, shape)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := srv.Insert(batch); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		qwg.Add(1)
		go func(c int) {
			defer qwg.Done()
			last := base
			for {
				select {
				case <-stop:
					return
				default:
				}
				var q *ssb.Query = countQ
				if c%2 == 1 {
					q = ssb.RandQuery(int64(c) * 31)
				}
				resp, err := srv.Execute(ctx, q)
				if err != nil {
					errCh <- err
					return
				}
				if q == countQ {
					got := resp.Result.Rows[0].Aggs[0]
					if got < last || (got-base)%batchRows != 0 {
						errCh <- fmt.Errorf("count invariant violated: got %d after %d (base %d)", got, last, base)
						return
					}
					last = got
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close (drain+flush): %v", err)
	}
	ds := srv.DB().ColumnDB(true).DeltaStats()
	want := int64(inserters * batches * batchRows)
	if ds.Epoch != want || ds.PendingRows != 0 {
		t.Errorf("after close: epoch=%d pending=%d, want %d/0", ds.Epoch, ds.PendingRows, want)
	}
	seg := srv.DB().SegmentStore()
	if p := seg.Pool().PinnedFrames(); p != 0 {
		t.Errorf("%d frames pinned after close", p)
	}
	// Cold reopen: Close must have flushed every inserted row into the file.
	cold, err := core.OpenSegmentStore(seg.Path(), 0)
	if err != nil {
		t.Fatalf("reopening %s after close: %v", seg.Path(), err)
	}
	defer cold.SegmentStore().Close()
	if got := int64(cold.ColumnDB(true).NumRows()); got != base+want {
		t.Fatalf("cold reopen holds %d rows, want %d (base %d + %d inserted): unflushed-delta loss", got, base+want, base, want)
	}
}
