package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/iosim"
	"repro/internal/ssb"
)

// statsDoc is the whole /stats document. Tests decode it strictly, so a
// field the server adds, drops or renames fails them instead of decoding
// to a silent zero.
type statsDoc struct {
	Server struct {
		UptimeSeconds  float64         `json:"uptime_seconds"`
		Goroutines     int             `json:"goroutines"`
		Queries        int64           `json:"queries"`
		Errors         int64           `json:"errors"`
		InFlight       int64           `json:"in_flight"`
		CacheHits      int64           `json:"cache_hits"`
		CacheMisses    int64           `json:"cache_misses"`
		CacheEntries   int             `json:"cache_entries"`
		AdmitWaits     int64           `json:"admit_waits"`
		AdmitWaitNs    int64           `json:"admit_wait_ns"`
		AdmitRejects   int64           `json:"admit_rejects"`
		AdmitBytes     int64           `json:"admit_bytes"`
		Logical        iosim.Stats     `json:"logical_io"`
		Inserts        int64           `json:"inserts"`
		InsertedRows   int64           `json:"inserted_rows"`
		Deletes        int64           `json:"deletes"`
		DictBytes      int64           `json:"dict_bytes"`
		DeletedRows    int64           `json:"deleted_rows"`
		Delta          exec.DeltaStats `json:"delta"`
		WSFullRejects  int64           `json:"ws_full_rejects"`
		RetryAfterSent int64           `json:"retry_after_sent"`
		WAL            exec.WALStats   `json:"wal"`
	} `json:"server"`
	Pool *struct {
		Budget          int64 `json:"budget"`
		Hits            int64 `json:"hits"`
		Misses          int64 `json:"misses"`
		Evictions       int64 `json:"evictions"`
		BytesRead       int64 `json:"bytes_read"`
		Resident        int64 `json:"resident"`
		ResidentLogical int64 `json:"resident_logical"`
		Peak            int64 `json:"peak"`
		Pinned          int   `json:"pinned_frames"`
		Appends         int64 `json:"appends"`
		AppendedBytes   int64 `json:"appended_bytes"`
		Mapped          int64 `json:"mapped"`
		Spare           int64 `json:"spare"`
		Mappings        int64 `json:"mappings"`
	} `json:"pool"`
	Recovery string `json:"recovery"`
}

// readStats renders /stats through srv's handler and decodes it strictly.
func readStats(t *testing.T, srv *Server) statsDoc {
	t.Helper()
	rec := serve(srv.Handler(), http.MethodGet, "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var st statsDoc
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/stats strict decode: %v", err)
	}
	return st
}

// statsLeaves renders /stats through srv's handler and flattens it to
// "path kind" lines, sorted, and to the numeric value at each path.
func statsLeaves(t *testing.T, srv *Server) ([]string, map[string]float64) {
	t.Helper()
	rec := serve(srv.Handler(), http.MethodGet, "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	var leaves []string
	nums := map[string]float64{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch v := v.(type) {
		case map[string]any:
			if len(v) > 0 {
				for k, child := range v {
					if path == "" {
						walk(k, child)
					} else {
						walk(path+"."+k, child)
					}
				}
				return
			}
			kind = "object"
		case []any:
			kind = "array"
		case string:
			kind = "string"
		case bool:
			kind = "bool"
		case float64:
			kind = "number"
			nums[path] = v
		}
		leaves = append(leaves, path+" "+kind)
	}
	walk("", doc)
	sort.Strings(leaves)
	return leaves, nums
}

// serverLeaves is the frozen "server" half of /stats: every leaf path with
// its JSON kind. The benchmark and ssb-top decode these names.
var serverLeaves = []string{
	"server.admit_bytes number",
	"server.admit_rejects number",
	"server.admit_wait_ns number",
	"server.admit_waits number",
	"server.cache_entries number",
	"server.cache_hits number",
	"server.cache_misses number",
	"server.deleted_rows number",
	"server.deletes number",
	"server.dict_bytes number",
	"server.delta.compactions number",
	"server.delta.deletes number",
	"server.delta.enabled bool",
	"server.delta.epoch number",
	"server.delta.pending_bytes number",
	"server.delta.pending_rows number",
	"server.delta.sealed_rows number",
	"server.delta.tombstones_sealed number",
	"server.delta.tombstones_ws number",
	"server.delta.total_rows number",
	"server.errors number",
	"server.goroutines number",
	"server.in_flight number",
	"server.inserted_rows number",
	"server.inserts number",
	"server.logical_io.BlocksCovered number",
	"server.logical_io.BlocksFetched number",
	"server.logical_io.BlocksPruned number",
	"server.logical_io.BytesRead number",
	"server.logical_io.BytesWritten number",
	"server.logical_io.DecodedBytes number",
	"server.logical_io.Gathers number",
	"server.logical_io.KernelFolds number",
	"server.logical_io.Seeks number",
	"server.queries number",
	"server.retry_after_sent number",
	"server.uptime_seconds number",
	"server.wal.appends number",
	"server.wal.bytes number",
	"server.wal.commits number",
	"server.wal.durable_lsn number",
	"server.wal.enabled bool",
	"server.wal.last_lsn number",
	"server.wal.replayed number",
	"server.wal.rewrites number",
	"server.wal.syncs number",
	"server.wal.torn_bytes number",
	"server.ws_full_rejects number",
}

// poolLeaves is the "pool" section, present only for a segment store.
var poolLeaves = []string{
	"pool.appended_bytes number",
	"pool.appends number",
	"pool.budget number",
	"pool.bytes_read number",
	"pool.evictions number",
	"pool.hits number",
	"pool.mapped number",
	"pool.mappings number",
	"pool.misses number",
	"pool.peak number",
	"pool.pinned_frames number",
	"pool.resident number",
	"pool.resident_logical number",
	"pool.spare number",
}

// TestStatsLeafSet pins /stats's shape: the exact set of leaf paths and
// their JSON kinds, for a segment store with ingest and a WAL after one
// insert (62 leaves) and for an in-memory store (48, no pool section).
func TestStatsLeafSet(t *testing.T) {
	check := func(label string, got, want []string) {
		t.Helper()
		want = append([]string(nil), want...)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("%s: %d leaves, want %d", label, len(got), len(want))
		}
		g := map[string]bool{}
		for _, l := range got {
			g[l] = true
		}
		w := map[string]bool{}
		for _, l := range want {
			w[l] = true
			if !g[l] {
				t.Errorf("%s: missing %q", label, l)
			}
		}
		for _, l := range got {
			if !w[l] {
				t.Errorf("%s: unexpected %q", label, l)
			}
		}
	}

	seg, _, _ := openSegServer(t, 1<<20, Options{
		Ingest: true, HistoryInterval: -1,
		WALPath: filepath.Join(t.TempDir(), "stats.wal"),
	})
	defer seg.Close()
	if code := serve(seg.Handler(), http.MethodPost, "/insert", `{"seed":1,"count":100}`).Code; code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	got, _ := statsLeaves(t, seg)
	check("segment store", got, append(append([]string(nil), serverLeaves...), poolLeaves...))

	mem, err := New(core.OpenData(ssb.Generate(0.01)), Options{HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	got, _ = statsLeaves(t, mem)
	check("in-memory store", got, serverLeaves)
}

// statsPathOf maps every counter and gauge /metrics exports to the /stats
// leaf that reports the same number.
var statsPathOf = map[string]string{
	"ssb_queries_total":               "server.queries",
	"ssb_query_errors_total":          "server.errors",
	"ssb_cache_hits_total":            "server.cache_hits",
	"ssb_cache_misses_total":          "server.cache_misses",
	"ssb_admission_rejects_total":     "server.admit_rejects",
	"ssb_inserts_total":               "server.inserts",
	"ssb_inserted_rows_total":         "server.inserted_rows",
	"ssb_deletes_total":               "server.deletes",
	"ssb_deleted_rows_total":          "server.deleted_rows",
	"ssb_ws_full_rejects_total":       "server.ws_full_rejects",
	"ssb_retry_after_sent_total":      "server.retry_after_sent",
	"ssb_wal_fsyncs_total":            "server.wal.syncs",
	"ssb_pool_evictions_total":        "pool.evictions",
	"ssb_in_flight_queries":           "server.in_flight",
	"ssb_cache_entries":               "server.cache_entries",
	"ssb_pool_resident_bytes":         "pool.resident",
	"ssb_pool_resident_logical_bytes": "pool.resident_logical",
	"ssb_pool_spare_bytes":            "pool.spare",
	"ssb_pool_mapped_bytes":           "pool.mapped",
	"ssb_pool_pinned_frames":          "pool.pinned_frames",
	"ssb_dict_bytes":                  "server.dict_bytes",
	"ssb_ws_pending_bytes":            "server.delta.pending_bytes",
	"ssb_ws_pending_rows":             "server.delta.pending_rows",
}

// TestStatsMetricsAgree drives mixed traffic — a miss, a hit, an insert, a
// backpressure 503 and a delete, with a WAL and an evicting pool — and
// requires every number exported on both /stats and /metrics to read the
// same on each.
func TestStatsMetricsAgree(t *testing.T) {
	srv, _, _ := openSegServer(t, 256<<10, Options{
		Ingest: true, IngestMaxBytes: 1, HistoryInterval: -1,
		WALPath: filepath.Join(t.TempDir(), "agree.wal"),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	do(http.MethodGet, "/query?id=3.1", "", http.StatusOK) // miss
	do(http.MethodGet, "/query?id=3.1", "", http.StatusOK) // hit
	do(http.MethodPost, "/insert", `{"seed":5,"count":2500}`, http.StatusOK)
	do(http.MethodPost, "/insert", `{"seed":6,"count":2500}`, http.StatusServiceUnavailable)
	do(http.MethodPost, "/delete", `{"filters":[{"col":"quantity","op":"eq","a":30}]}`, http.StatusOK)
	do(http.MethodGet, "/query?id=1.1", "", http.StatusOK)

	v, fams := scrape(t, ts)
	_, st := statsLeaves(t, srv)
	exported := 0
	for _, f := range fams {
		name, typ, _ := strings.Cut(f, " ")
		if typ == "histogram" {
			continue
		}
		exported++
		path, ok := statsPathOf[name]
		if !ok {
			t.Errorf("%s is on /metrics but maps to no /stats leaf", name)
			continue
		}
		sv, ok := st[path]
		if !ok {
			t.Errorf("%s: /stats has no number at %s", name, path)
			continue
		}
		if sv != v[name] {
			t.Errorf("%s = %g on /metrics, %s = %g on /stats", name, v[name], path, sv)
		}
	}
	if exported != len(statsPathOf) {
		t.Errorf("/metrics exports %d counters and gauges, want %d", exported, len(statsPathOf))
	}
	for _, path := range []string{"server.cache_hits", "server.inserts", "server.deleted_rows",
		"server.ws_full_rejects", "server.retry_after_sent", "server.wal.syncs", "pool.evictions", "pool.mapped", "server.dict_bytes"} {
		if st[path] == 0 {
			t.Errorf("%s is zero after the traffic meant to move it", path)
		}
	}
}
