package obs

import (
	"sort"
	"strings"
	"sync"
)

// QueryRecord is the flight recorder's evidence for one completed query:
// the plan shape the executor chose, where the time went, and the
// stage-counter rollup. Records are small and fixed-shape (one struct,
// a few strings), so a ring of them has bounded memory no matter how much
// traffic the server takes.
type QueryRecord struct {
	// Seq is the recorder-assigned monotone sequence number (newest
	// records have the highest Seq).
	Seq int64 `json:"seq"`
	// UnixNano is the completion timestamp, supplied by the caller so the
	// recorder itself stays clock-free and deterministic under test.
	UnixNano int64 `json:"unix_nano"`
	// Query is the plan selector: an SSBM id ("1.1"), a fuzz seed id
	// ("fuzz-42"), or the parser-assigned id of an ad-hoc SQL query.
	Query string `json:"query"`
	// Engine is the executor that ran ("fused", "per-probe", "early-mat"),
	// "cache" for result-cache hits, or "" when the run failed before an
	// engine was chosen.
	Engine  string `json:"engine"`
	Config  string `json:"config,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Epoch   int64  `json:"epoch"`
	// Cached marks result-cache hits (no engine ran; ExecNs is the hit's
	// lookup time, effectively zero).
	Cached bool `json:"cached,omitempty"`
	// Error is the failure, "" on success. Admission cancellations land
	// here too — the recorder sees every query the server accepted.
	Error string `json:"error,omitempty"`
	// WaitNs is admission queueing; ExecNs the engine execution wall.
	WaitNs int64 `json:"wait_ns"`
	ExecNs int64 `json:"exec_ns"`
	// Totals is the stage-counter rollup of the run's trace (zero for
	// cache hits and pre-execution failures).
	Totals StageCounters `json:"totals"`
}

// Flight buckets the record for the summary's engine×flight grouping: the
// SSBM flight digit ("1".."4") for canonical ids, "adhoc" for everything
// else.
func (r *QueryRecord) Flight() string {
	if i := strings.IndexByte(r.Query, '.'); i > 0 && i <= 2 {
		digits := true
		for _, c := range r.Query[:i] {
			if c < '0' || c > '9' {
				digits = false
				break
			}
		}
		if digits {
			return r.Query[:i]
		}
	}
	return "adhoc"
}

// Recorder is the always-on flight recorder: a fixed-capacity ring of the
// last N completed QueryRecords. Record is one mutex acquisition and one
// struct copy — cheap enough to run unconditionally on the serving path.
// All methods are safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	buf  []QueryRecord // guarded by mu; ring storage, cap == len(buf)
	next int           // guarded by mu; index the next record lands in
	n    int           // guarded by mu; live records (<= len(buf))
	seq  int64         // guarded by mu; last assigned sequence number
}

// NewRecorder returns a recorder keeping the last capacity records
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]QueryRecord, capacity)}
}

// Record stores rec, overwriting the oldest entry once the ring is full,
// and returns the sequence number it assigned.
func (r *Recorder) Record(rec QueryRecord) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.Seq = r.seq
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	return rec.Seq
}

// Len returns the number of live records.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Snapshot returns up to n records, newest first (n <= 0 means all). The
// returned slice is a copy; the caller owns it.
func (r *Recorder) Snapshot(n int) []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// SummaryGroup is one engine×flight cell of the windowed summary.
// Percentiles are over engine execution wall time (ExecNs) of successful,
// non-cached runs; Count/Errors/CacheHits count every record in the cell.
type SummaryGroup struct {
	Engine    string `json:"engine"`
	Flight    string `json:"flight"`
	Count     int    `json:"count"`
	Errors    int    `json:"errors"`
	CacheHits int    `json:"cache_hits"`
	// Runs is the number of latency observations behind the percentiles.
	Runs   int   `json:"runs"`
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
}

// Summary is the windowed rollup behind /debug/summary.
type Summary struct {
	// WindowNs is the lookback the summary covers; records older than
	// (now - WindowNs) are excluded even if still in the ring.
	WindowNs  int64 `json:"window_ns"`
	Count     int   `json:"count"`
	Errors    int   `json:"errors"`
	CacheHits int   `json:"cache_hits"`
	Runs      int   `json:"runs"`
	P50Ns     int64 `json:"p50_ns"`
	P95Ns     int64 `json:"p95_ns"`
	P99Ns     int64 `json:"p99_ns"`
	// Groups is the per-engine×flight breakdown, sorted by engine then
	// flight for stable rendering.
	Groups []SummaryGroup `json:"groups"`
}

// Summary computes the windowed percentile rollup from the ring: records
// with UnixNano >= now-windowNs contribute (windowNs <= 0 means the whole
// ring). The caller supplies now so tests stay deterministic.
func (r *Recorder) Summary(nowUnixNano, windowNs int64) Summary {
	recs := r.Snapshot(0)
	s := Summary{WindowNs: windowNs}
	var all []int64
	type cell struct {
		g    SummaryGroup
		lats []int64
	}
	cells := map[string]*cell{}
	for i := range recs {
		rec := &recs[i]
		if windowNs > 0 && rec.UnixNano < nowUnixNano-windowNs {
			continue
		}
		s.Count++
		key := rec.Engine + "\x00" + rec.Flight()
		c := cells[key]
		if c == nil {
			c = &cell{g: SummaryGroup{Engine: rec.Engine, Flight: rec.Flight()}}
			cells[key] = c
		}
		c.g.Count++
		switch {
		case rec.Error != "":
			s.Errors++
			c.g.Errors++
		case rec.Cached:
			s.CacheHits++
			c.g.CacheHits++
		default:
			all = append(all, rec.ExecNs)
			c.lats = append(c.lats, rec.ExecNs)
		}
	}
	s.Runs = len(all)
	s.P50Ns, s.P95Ns, s.P99Ns = percentiles(all)
	for _, c := range cells {
		c.g.Runs = len(c.lats)
		c.g.P50Ns, c.g.P95Ns, c.g.P99Ns = percentiles(c.lats)
		var sum int64
		for _, l := range c.lats {
			sum += l
			if l > c.g.MaxNs {
				c.g.MaxNs = l
			}
		}
		if len(c.lats) > 0 {
			c.g.MeanNs = sum / int64(len(c.lats))
		}
		s.Groups = append(s.Groups, c.g)
	}
	sort.Slice(s.Groups, func(i, j int) bool {
		if s.Groups[i].Engine != s.Groups[j].Engine {
			return s.Groups[i].Engine < s.Groups[j].Engine
		}
		return s.Groups[i].Flight < s.Groups[j].Flight
	})
	return s
}

// percentiles returns the nearest-rank p50/p95/p99 of lats (zeros for an
// empty input). lats is sorted in place.
func percentiles(lats []int64) (p50, p95, p99 int64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(lats))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}
