package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the one list of a server's numbers. It renders them as the
// Prometheus text exposition format (version 0.0.4, WritePrometheus), as
// history samples of the same families (Sample), and as one nested JSON
// document (WriteJSON, the /stats endpoint). It supports
// exactly what the serving layer needs — function-backed counters and
// gauges, log-bucketed histograms, and JSON-only values — with no dependency
// outside the standard library.
//
// Every number is read at render time from its callback, so the server
// registers closures over its existing atomic counters instead of
// maintaining a second set.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]struct{}
	vals  []value // the JSON document's leaves, in registration order
}

type family struct {
	name, help string
	typ        string // "counter" | "gauge" | "histogram"
	intFn      func() int64
	hist       *Histogram
}

// value is one JSON leaf: a dotted key and the callback that reads it.
type value struct {
	key string
	fn  func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// add registers a Prometheus family and, when key is non-empty, the same
// number as a JSON leaf.
func (r *Registry) add(f *family, key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !validMetricName(f.name) {
		panic("obs: invalid metric name " + f.name)
	}
	if _, dup := r.names[f.name]; dup {
		panic("obs: duplicate metric name " + f.name)
	}
	if key != "" {
		r.addValue(key, func() any { return f.intFn() })
	}
	r.names[f.name] = struct{}{}
	r.fams = append(r.fams, f)
}

// addValue registers a JSON leaf. A key equal to another, or naming an
// object that holds another, would make the document ambiguous. holds mu.
func (r *Registry) addValue(key string, fn func() any) {
	for _, v := range r.vals {
		if v.key == key || strings.HasPrefix(v.key, key+".") || strings.HasPrefix(key, v.key+".") {
			panic("obs: key " + key + " collides with " + v.key)
		}
	}
	r.vals = append(r.vals, value{key, fn})
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterFunc registers a monotonically increasing counter whose value is
// read from fn at render time, exported as name and, unless key is empty,
// as the JSON leaf key.
func (r *Registry) CounterFunc(name, key, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "counter", intFn: fn}, key)
}

// GaugeFunc registers a gauge whose value is read from fn at render time,
// exported as name and, unless key is empty, as the JSON leaf key.
func (r *Registry) GaugeFunc(name, key, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "gauge", intFn: fn}, key)
}

// ValueFunc registers a JSON-only leaf: fn's result, encoded with
// encoding/json, at key. A nil result omits the key from the document.
func (r *Registry) ValueFunc(key string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addValue(key, fn)
}

// Histogram accumulates observations into fixed buckets. Concurrency-safe;
// Observe touches two atomics and the sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds (in the metric's native unit, seconds for latencies).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending: " + name)
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	r.add(&family{name: name, help: help, typ: "histogram", hist: h}, "")
	return h
}

// ExpBuckets returns n ascending bounds start, start*factor, ... — the
// log-spaced buckets latency histograms want.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders every registered family in text exposition
// format. Families render in registration order; histogram buckets are
// cumulative as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		switch f.typ {
		case "counter", "gauge":
			fmt.Fprintf(bw, "%s %d\n", f.name, f.intFn())
		case "histogram":
			h := f.hist
			var cum int64
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", f.name, formatFloat(ub), cum)
			}
			cum += h.inf.Load()
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
			sum := math.Float64frombits(h.sumBits.Load())
			fmt.Fprintf(bw, "%s_sum %s\n", f.name, formatFloat(sum))
			fmt.Fprintf(bw, "%s_count %d\n", f.name, cum)
		}
	}
	return bw.Flush()
}

// WriteJSON renders every keyed number as one JSON object, HTML escaping
// off. A dotted key nests: "server.wal" is field "wal" of object "server".
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	vals := make([]value, len(r.vals))
	copy(vals, r.vals)
	r.mu.Unlock()

	doc := map[string]any{}
	for _, v := range vals {
		x := v.fn()
		if x == nil {
			continue
		}
		obj := doc
		path := strings.Split(v.key, ".")
		for _, p := range path[:len(path)-1] {
			child, ok := obj[p].(map[string]any)
			if !ok {
				child = map[string]any{}
				obj[p] = child
			}
			obj = child
		}
		obj[path[len(path)-1]] = x
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
