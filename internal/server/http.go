package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/compress"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/ssb"
)

// queryRequest is the POST body of /query. Exactly one of ID, SQL or Seed
// selects the plan.
type queryRequest struct {
	// ID names one of the thirteen fixed SSBM queries ("1.1" .. "4.3").
	ID string `json:"id,omitempty"`
	// SQL is an ad-hoc query in the SSBM dialect.
	SQL string `json:"sql,omitempty"`
	// Seed runs the seeded random plan ssb.RandQuery(*Seed) — the same
	// plan space the fuzz and stress harnesses draw from. A pointer so
	// seed 0 is expressible.
	Seed *int64 `json:"seed,omitempty"`
	// Trace requests a per-stage execution trace in the response (GET:
	// trace=1). Cache hits carry no trace — the entry's run predates the
	// request.
	Trace bool `json:"trace,omitempty"`
}

// insertRequest is the POST body of /insert: either explicit rows or a
// seeded server-side batch (seed + count), which is how the bench and CI
// harnesses drive insert load without shipping row payloads.
type insertRequest struct {
	Seed  *int64      `json:"seed,omitempty"`
	Count int         `json:"count,omitempty"`
	Rows  []insertRow `json:"rows,omitempty"`
}

// insertRow is one logical lineorder row. Foreign keys are logical
// (custkey/suppkey/partkey as generated, orderdate as yyyymmdd datekey);
// empty string attributes default to the first dictionary value.
type insertRow struct {
	OrderKey      int32  `json:"orderkey"`
	LineNumber    int32  `json:"linenumber"`
	CustKey       int32  `json:"custkey"`
	PartKey       int32  `json:"partkey"`
	SuppKey       int32  `json:"suppkey"`
	OrderDate     int32  `json:"orderdate"`
	OrdPriority   string `json:"ordpriority,omitempty"`
	ShipPriority  int32  `json:"shippriority"`
	Quantity      int32  `json:"quantity"`
	ExtendedPrice int32  `json:"extendedprice"`
	OrdTotalPrice int32  `json:"ordtotalprice"`
	Discount      int32  `json:"discount"`
	Revenue       int32  `json:"revenue"`
	SupplyCost    int32  `json:"supplycost"`
	Tax           int32  `json:"tax"`
	CommitDate    int32  `json:"commitdate"`
	ShipMode      string `json:"shipmode,omitempty"`
}

// maxInsertBodyBytes bounds one /insert request body (~64 MB comfortably
// fits the seeded path's row cap; explicit-row batches larger than this
// should be split).
const maxInsertBodyBytes = 64 << 20

// maxQueryBodyBytes bounds one POSTed /query body.
const maxQueryBodyBytes = 1 << 20

// bufPool recycles handleQuery's one buffer, which holds the POST body and
// then the response.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is shared by every response; net/http only reads it.
var jsonContentType = []string{"application/json"}

// retryAfterSeconds is the Retry-After hint sent with write-store
// backpressure: roughly how long one background tuple-mover pass takes on
// a loaded store, so well-behaved clients pace their retries instead of
// hammering the 503.
const retryAfterSeconds = 1

// deleteRequest is the POST body of /delete: a conjunction of predicates
// over identity-valued fact columns. Every visible row matching all of
// them is tombstoned.
type deleteRequest struct {
	Filters []deleteFilter `json:"filters"`
}

// deleteFilter is one predicate: col plus an op. eq/lt/le/gt/ge use A;
// between uses A and B; in uses Values.
type deleteFilter struct {
	Col    string  `json:"col"`
	Op     string  `json:"op"`
	A      int32   `json:"a,omitempty"`
	B      int32   `json:"b,omitempty"`
	Values []int32 `json:"values,omitempty"`
}

// pred translates the wire filter to an executor predicate.
func (f *deleteFilter) pred() (compress.Pred, error) {
	switch f.Op {
	case "eq":
		return compress.Eq(f.A), nil
	case "between":
		return compress.Between(f.A, f.B), nil
	case "lt":
		return compress.Lt(f.A), nil
	case "le":
		return compress.Le(f.A), nil
	case "gt":
		return compress.Gt(f.A), nil
	case "ge":
		return compress.Ge(f.A), nil
	case "in":
		if len(f.Values) == 0 {
			return compress.Pred{}, errors.New("op \"in\" needs a non-empty values list")
		}
		return compress.In(f.Values...), nil
	default:
		return compress.Pred{}, fmt.Errorf("unknown op %q (eq, between, lt, le, gt, ge, in)", f.Op)
	}
}

// deleteResponse reports one accepted delete operation.
type deleteResponse struct {
	Deleted int64 `json:"deleted"`
	Epoch   int64 `json:"epoch"`
}

// insertResponse reports one accepted batch.
type insertResponse struct {
	Inserted int   `json:"inserted"`
	Epoch    int64 `json:"epoch"`
	// PendingRows/PendingBytes describe the write store after the batch.
	PendingRows  int64 `json:"pending_rows"`
	PendingBytes int64 `json:"pending_bytes"`
}

// Handler returns the HTTP API: POST or GET /query (id= | sql= | seed=,
// plus trace=1 for a per-stage execution trace), GET /stats, GET /metrics
// (Prometheus text exposition), and the observability read endpoints
// /debug/queries, /debug/summary, and /metrics/history (debug.go). Request
// contexts propagate into execution, so a client that disconnects cancels
// its query at the next block boundary.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.registerDebug(mux)
	if s.accessLog {
		return s.withAccessLog(mux)
	}
	return mux
}

// handleMetrics renders the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// accessRecord is filled in by handlers with what the URL alone doesn't
// say (the resolved plan selector, admission wait, cache disposition) so
// the access-log line can carry it.
type accessRecord struct {
	query  string
	wait   time.Duration
	cached bool
}

type accessKey struct{}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withAccessLog emits one line per request: method, path, plan selector,
// status, admission wait, total latency.
func (s *Server) withAccessLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &accessRecord{}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), accessKey{}, rec)))
		q := rec.query
		if q == "" {
			q = "-"
		}
		s.logf("access %d %s %s q=%s cached=%t wait=%s total=%s",
			sw.status, r.Method, r.URL.Path, q, rec.cached,
			rec.wait.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	})
}

// querySelector renders the resolved plan selector for the access log: the
// SSBM id, the seed, or an FNV-64a hash of the ad-hoc SQL (logs stay
// one-line and never reproduce request text).
func (r *queryRequest) querySelector() string {
	switch {
	case r.ID != "":
		return r.ID
	case r.Seed != nil:
		return fmt.Sprintf("seed=%d", *r.Seed)
	case r.SQL != "":
		h := fnv.New64a()
		h.Write([]byte(r.SQL))
		return fmt.Sprintf("sql=%016x", h.Sum64())
	default:
		return "-"
	}
}

// handleDelete tombstones the rows matching the request's predicate
// conjunction, durably when the server runs with a WAL.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.ingest {
		httpError(w, http.StatusNotImplemented, "ingest is disabled; start the server with ingest enabled")
		return
	}
	var req deleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	filters := make([]ssb.FactFilter, 0, len(req.Filters))
	for _, f := range req.Filters {
		pred, err := f.pred()
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		filters = append(filters, ssb.FactFilter{Col: f.Col, Pred: pred})
	}
	deleted, epoch, err := s.Delete(filters)
	switch {
	case err == nil:
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: deleted, Epoch: epoch})
}

// handleInsert accepts one batch of rows (explicit or seeded) and appends
// it to the write store.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.ingest {
		httpError(w, http.StatusNotImplemented, "ingest is disabled; start the server with ingest enabled")
		return
	}
	var req insertRequest
	// The explicit-rows path must be bounded like the seeded path is (its
	// row cap): without a body limit one request could materialize
	// arbitrarily much JSON in memory before validation runs.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	batch, err := req.batch(s)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	epoch, err := s.Insert(batch)
	switch {
	case err == nil:
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, exec.ErrWriteStoreFull):
		// Backpressure: the tuple mover is behind. Retry-After tells
		// well-behaved clients how long to pace off before retrying.
		s.retryAfters.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	delta := s.col.DeltaStats()
	writeJSON(w, http.StatusOK, insertResponse{
		Inserted:     batch.Len(),
		Epoch:        epoch,
		PendingRows:  delta.PendingRows,
		PendingBytes: delta.PendingBytes,
	})
}

// batch resolves the request to a logical row batch.
func (r *insertRequest) batch(s *Server) (*ssb.Lineorders, error) {
	if (r.Seed != nil) == (len(r.Rows) > 0) {
		return nil, errors.New("specify exactly one of rows or seed(+count)")
	}
	if r.Seed != nil {
		n := r.Count
		if n <= 0 {
			n = 1000
		}
		if n > 1<<22 {
			return nil, fmt.Errorf("count %d too large (max %d rows per batch)", n, 1<<22)
		}
		shape, err := s.col.BatchShape()
		if err != nil {
			return nil, err
		}
		return ssb.RandBatch(*r.Seed, n, shape)
	}
	shape, err := s.col.BatchShape()
	if err != nil {
		return nil, err
	}
	b := &ssb.Lineorders{}
	for _, row := range r.Rows {
		prio, ship := row.OrdPriority, row.ShipMode
		if prio == "" {
			prio = shape.OrdPriorities[0]
		}
		if ship == "" {
			ship = shape.ShipModes[0]
		}
		b.OrderKey = append(b.OrderKey, row.OrderKey)
		b.LineNumber = append(b.LineNumber, row.LineNumber)
		b.CustKey = append(b.CustKey, row.CustKey)
		b.PartKey = append(b.PartKey, row.PartKey)
		b.SuppKey = append(b.SuppKey, row.SuppKey)
		b.OrderDate = append(b.OrderDate, row.OrderDate)
		b.OrdPriority = append(b.OrdPriority, prio)
		b.ShipPriority = append(b.ShipPriority, row.ShipPriority)
		b.Quantity = append(b.Quantity, row.Quantity)
		b.ExtendedPrice = append(b.ExtendedPrice, row.ExtendedPrice)
		b.OrdTotalPrice = append(b.OrdTotalPrice, row.OrdTotalPrice)
		b.Discount = append(b.Discount, row.Discount)
		b.Revenue = append(b.Revenue, row.Revenue)
		b.SupplyCost = append(b.SupplyCost, row.SupplyCost)
		b.Tax = append(b.Tax, row.Tax)
		b.CommitDate = append(b.CommitDate, row.CommitDate)
		b.ShipMode = append(b.ShipMode, ship)
	}
	return b, nil
}

// handleQuery answers one query. A repeated request costs three map lookups
// (route, plan cache, result cache) and one Write: its text is neither
// decoded nor parsed again, and the cached answer is already rendered.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	key := planKey{text: r.URL.RawQuery}
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		body := bytes.NewBuffer((*bp)[:0])
		_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes))
		*bp = body.Bytes()
		if err != nil {
			status := http.StatusBadRequest
			if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, "bad request body: "+err.Error())
			return
		}
		key = planKey{post: true, text: string(*bp)}
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	p, ok := s.plans.get(key)
	if !ok {
		var err error
		if p, err = newPlanEntry(key); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(key.text) <= maxPlanKeyBytes {
			s.plans.put(key, p)
		}
	}
	rec, _ := r.Context().Value(accessKey{}).(*accessRecord)
	if rec != nil {
		rec.query = p.selector
	}

	ctx := r.Context()
	var tr *obs.Trace
	if p.trace {
		tr = &obs.Trace{}
		ctx = obs.WithTrace(ctx, tr)
	}
	e, cached, wait, err := s.execute(ctx, p.q, p.sql)
	switch {
	case err == nil:
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone or out of time; the query was abandoned at a
		// block boundary. 504 for the (rare) reader still listening.
		httpError(w, http.StatusGatewayTimeout, err.Error())
		return
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if rec != nil {
		rec.wait, rec.cached = wait, cached
	}
	*bp = appendQueryResponse((*bp)[:0], p, e, cached, wait, tr)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(*bp))}
	_, _ = w.Write(*bp) // a failed write is a gone client; nothing to report
}

// appendQueryResponse renders the /query response object byte for byte as
// encoding/json (HTML escaping off) rendered it: wait_ns is admission
// queueing, cpu_ns measured execution, io_bytes/io_seeks the logical I/O,
// total_ns the paper-comparable total (CPU + modeled disk time); tr is the
// trace the request asked for, if any.
func appendQueryResponse(dst []byte, p *planEntry, e *cacheEntry, cached bool, wait time.Duration, tr *obs.Trace) []byte {
	dst = appendJSONString(append(dst, `{"id":`...), p.q.ID)
	dst = append(dst, ',')
	if e.frag != nil {
		dst = append(dst, e.frag...)
	} else {
		dst = appendFragment(dst, p.sql, e.res)
	}
	dst = strconv.AppendBool(append(dst, `,"cached":`...), cached)
	dst = strconv.AppendInt(append(dst, `,"wait_ns":`...), int64(wait), 10)
	dst = strconv.AppendInt(append(dst, `,"cpu_ns":`...), int64(e.stats.Wall), 10)
	dst = strconv.AppendInt(append(dst, `,"io_bytes":`...), e.stats.IO.BytesRead, 10)
	dst = strconv.AppendInt(append(dst, `,"io_seeks":`...), e.stats.IO.Seeks, 10)
	dst = strconv.AppendInt(append(dst, `,"total_ns":`...), int64(e.stats.Total), 10)
	if tr != nil && !cached { // a hit's entry predates the request: nothing was traced
		body := bytes.NewBuffer(append(dst, `,"trace":`...))
		enc := json.NewEncoder(body)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(tr) // plain data into memory: cannot fail
		dst = bytes.TrimSuffix(body.Bytes(), []byte("\n"))
	}
	return append(dst, "}\n"...)
}

// appendFragment renders the part of a response that is a pure function of
// (plan, data): `"sql":…,"rows":[{"keys":[…],"aggs":[…]},…]`, keys omitted
// for ungrouped rows. The result cache stores it beside the result.
func appendFragment(dst []byte, sql string, res *ssb.Result) []byte {
	dst = appendJSONString(append(dst, `"sql":`...), sql)
	dst = append(dst, `,"rows":[`...)
	for i, row := range res.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		if len(row.Keys) > 0 {
			dst = append(dst, `"keys":[`...)
			for j, k := range row.Keys {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, k)
			}
			dst = append(dst, `],`...)
		}
		dst = append(dst, `"aggs":[`...)
		for j, a := range row.AggValues() {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, a, 10)
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with HTML escaping off: quote, backslash and control
// bytes escaped, invalid UTF-8 replaced by U+FFFD, U+2028/9 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= ' ' && b < utf8.RuneSelf && b != '"' && b != '\\' {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
			if !(c == utf8.RuneError && size == 1) && c != '\u2028' && c != '\u2029' {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b', '\t', '\n', '\f', '\r': // bytes 8-13; 11 (\v) has no short form
			dst = append(dst, '\\', "btn_fr"[c-'\b'])
		case utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default: // control bytes and U+2028/9
			dst = append(dst, '\\', 'u', hex[c>>12&0xF], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// newPlanEntry resolves a raw request selector: decode, parse, render.
func newPlanEntry(key planKey) (*planEntry, error) {
	var req queryRequest
	if key.post {
		if err := json.NewDecoder(strings.NewReader(key.text)).Decode(&req); err != nil {
			return nil, errors.New("bad request body: " + err.Error())
		}
	} else {
		v, _ := url.ParseQuery(key.text) // as URL.Query: malformed pairs are dropped
		req.ID, req.SQL = v.Get("id"), v.Get("sql")
		if sv := v.Get("seed"); sv != "" {
			seed, err := strconv.ParseInt(sv, 10, 64)
			if err != nil {
				return nil, errors.New("bad seed: " + err.Error())
			}
			req.Seed = &seed
		}
		t := v.Get("trace")
		req.Trace = t == "1" || t == "true"
	}
	q, err := req.plan()
	if err != nil {
		return nil, err
	}
	return &planEntry{q: q, sql: q.SQL(), trace: req.Trace, selector: req.querySelector()}, nil
}

// plan resolves the request's selector to a logical plan.
func (r *queryRequest) plan() (*ssb.Query, error) {
	selectors := 0
	for _, set := range []bool{r.ID != "", r.SQL != "", r.Seed != nil} {
		if set {
			selectors++
		}
	}
	if selectors != 1 {
		return nil, errors.New("specify exactly one of id, sql, seed")
	}
	switch {
	case r.ID != "":
		q := ssb.QueryByID(r.ID)
		if q == nil {
			return nil, errors.New("unknown SSBM query id " + r.ID)
		}
		return q, nil
	case r.Seed != nil:
		return ssb.RandQuery(*r.Seed), nil
	default:
		return sql.Parse("http", r.SQL)
	}
}

// handleStats renders the registry's /stats document: server counters,
// plus pool state for segment-backed stores.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	_ = s.metrics.WriteJSON(w) // a failed write is a gone client; nothing to report
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeJSON renders v with the status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
