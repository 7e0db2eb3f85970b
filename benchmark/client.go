package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// client is the benchmark's one HTTP client: keep-alive, at most two
// connections (the box has two cores and the workloads at most two clients).
type client struct {
	http *http.Client
}

func newClient() *client {
	return &client{http: &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}}
}

// roundTrip sends one request and reads the whole response. The returned
// times bracket send → last byte; decoding happens outside them.
func (c *client) roundTrip(base, path string, body []byte) (status int, payload []byte, start time.Time, rtt time.Duration, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil, time.Time{}, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, start, time.Since(start), err
	}
	payload, err = io.ReadAll(resp.Body)
	rtt = time.Since(start)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, payload, start, rtt, err
}

// stageTrace is one stage of the server's per-query execution trace.
type stageTrace struct {
	Name          string `json:"name"`
	RowsIn        int64  `json:"rows_in"`
	RowsOut       int64  `json:"rows_out"`
	BlocksPruned  int64  `json:"blocks_pruned"`
	BlocksFetched int64  `json:"blocks_fetched"`
	DecodedBytes  int64  `json:"decoded_bytes"`
	KernelFolds   int64  `json:"kernel_folds"`
	Gathers       int64  `json:"gathers"`
	WallNs        int64  `json:"wall_ns"`
}

// queryReply is the part of a /query response the benchmark reads.
type queryReply struct {
	Rows   []row `json:"rows"`
	Cached bool  `json:"cached"`
	WaitNs int64 `json:"wait_ns"`
	CPUNs  int64 `json:"cpu_ns"`
	Trace  *struct {
		Stages []stageTrace `json:"stages"`
	} `json:"trace"`
}

// insertReply is the part of an /insert response the benchmark reads.
type insertReply struct {
	Inserted    int   `json:"inserted"`
	PendingRows int64 `json:"pending_rows"`
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Server struct {
		Queries     int64 `json:"queries"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Inserts     int64 `json:"inserts"`
		Delta       struct {
			PendingRows int64 `json:"pending_rows"`
			SealedRows  int64 `json:"sealed_rows"`
			Compactions int64 `json:"compactions"`
		} `json:"delta"`
		WAL struct {
			Syncs    int64 `json:"syncs"`
			Rewrites int64 `json:"rewrites"`
			Bytes    int64 `json:"bytes"`
		} `json:"wal"`
	} `json:"server"`
	Pool struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Evictions     int64 `json:"evictions"`
		BytesRead     int64 `json:"bytes_read"`
		AppendedBytes int64 `json:"appended_bytes"`
	} `json:"pool"`
}

func (c *client) stats(base string) (*serverStats, error) {
	status, payload, _, _, err := c.roundTrip(base, "/stats", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/stats: status %d", status)
	}
	var st serverStats
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// queryTotals runs the whole-table COUNT/SUM/SUM query.
func (c *client) queryTotals(base string) (totals, error) {
	status, payload, _, _, err := c.roundTrip(base, "/query?sql="+url.QueryEscape(totalsSQL), nil)
	if err != nil {
		return totals{}, err
	}
	var rep queryReply
	if status != http.StatusOK {
		return totals{}, fmt.Errorf("totals query: status %d: %s", status, payload)
	}
	if err := json.Unmarshal(payload, &rep); err != nil {
		return totals{}, err
	}
	if len(rep.Rows) != 1 || len(rep.Rows[0].Aggs) != 3 {
		return totals{}, fmt.Errorf("totals query: unexpected shape %s", payload)
	}
	a := rep.Rows[0].Aggs
	return totals{Count: a[0], Revenue: a[1], Quantity: a[2]}, nil
}

// opCounter counts operations against failures. A request that fails, is
// answered wrongly or is refused counts as failed; refusals that were
// retried are also tallied on their own.
type opCounter struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	refused   int64
	messages  []string
}

func (o *opCounter) ok() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

func (o *opCounter) fail(format string, args ...any) {
	o.mu.Lock()
	o.attempted++
	o.failed++
	if len(o.messages) < 10 {
		o.messages = append(o.messages, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

func (o *opCounter) refusedOnce() {
	o.mu.Lock()
	o.refused++
	o.mu.Unlock()
}

// verifier checks query answers by row hash: against the reference answer
// when the helper computed one for the request, else against the first
// response seen for the same request.
type verifier struct {
	mu   sync.Mutex
	want map[string]uint64
}

func newVerifier(ref map[string][]row) *verifier {
	v := &verifier{want: map[string]uint64{}}
	for key, rows := range ref {
		v.want[key] = hashRows(rows)
	}
	return v
}

func hashRows(rows []row) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		for _, k := range r.Keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		for _, a := range r.Aggs {
			for i := range buf {
				buf[i] = byte(a >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// check reports whether rows are right for the request key.
func (v *verifier) check(key string, rows []row) bool {
	h := hashRows(rows)
	v.mu.Lock()
	defer v.mu.Unlock()
	want, seen := v.want[key]
	if !seen {
		v.want[key] = h
		return true
	}
	return h == want
}
