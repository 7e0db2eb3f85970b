package obs

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestTraceNilSafety pins the contract the executors rely on: a nil *Trace
// accepts every method without recording or panicking, so the untraced hot
// path needs no guards beyond one pointer test.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.AddStage("probe", "x", StageCounters{RowsIn: 1})
	if tot := tr.Totals(); tot != (StageCounters{}) {
		t.Fatalf("nil trace totals: %+v", tot)
	}
	var b strings.Builder
	tr.Render(&b)
	if b.Len() != 0 {
		t.Fatalf("nil trace rendered %q", b.String())
	}
	if tr.String() != "" || tr.CompactLine() != "" {
		t.Fatal("nil trace stringers must be empty")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context must carry no trace")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := &Trace{Engine: "fused"}
	if got := FromContext(WithTrace(context.Background(), tr)); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

func TestTraceTotalsAndRender(t *testing.T) {
	tr := &Trace{Query: "1.1", Engine: "fused", Config: "tICL", Workers: 2, WallNs: 5000}
	tr.AddStage("probe", "orderdate", StageCounters{RowsIn: 100, RowsOut: 40, BlocksFetched: 3, BytesRead: 1 << 20, KernelFolds: 3, WallNs: 2000})
	tr.AddStage("extract+aggregate", "", StageCounters{RowsIn: 40, RowsOut: 40, BlocksFetched: 2, DecodedBytes: 4096, Gathers: 2, Tombstoned: 7, WallNs: 3000})
	tot := tr.Totals()
	if tot.RowsIn != 140 || tot.BlocksFetched != 5 || tot.KernelFolds != 3 || tot.Gathers != 2 || tot.Tombstoned != 7 {
		t.Fatalf("totals: %+v", tot)
	}
	out := tr.String()
	for _, want := range []string{"engine=fused", "probe orderdate", "extract+aggregate", "total", "1.0MB", "4.0KB", "tombstones masked: 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	line := tr.CompactLine()
	if strings.ContainsRune(line, '\n') {
		t.Fatal("CompactLine must be one line")
	}
	for _, want := range []string{"query=1.1", "fetched=5", "probe(orderdate):100/40"} {
		if !strings.Contains(line, want) {
			t.Fatalf("compact line missing %q: %s", want, line)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 5)
	if len(b) != 5 || b[0] != 1 || b[4] != 16 {
		t.Fatalf("ExpBuckets: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("not ascending: %v", b)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "t", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// An observation equal to a bound lands in that bound's bucket (le is
	// inclusive); cumulative counts must be nondecreasing up to +Inf.
	for _, want := range []string{
		`test_seconds_bucket{le="1"} 1`,
		`test_seconds_bucket{le="2"} 2`,
		`test_seconds_bucket{le="4"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		`test_seconds_sum 105.5`,
		`test_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	zero := func() int64 { return 0 }
	r := NewRegistry()
	r.CounterFunc("dup_total", "a.dup", "d", zero)
	mustPanic("duplicate", func() { r.GaugeFunc("dup_total", "", "d", zero) })
	mustPanic("bad name", func() { r.CounterFunc("9starts_with_digit", "", "d", zero) })
	mustPanic("unsorted bounds", func() { r.NewHistogram("h_seconds", "h", []float64{2, 1}) })
	mustPanic("duplicate key", func() { r.CounterFunc("other_total", "a.dup", "d", zero) })
	mustPanic("key holds a key", func() { r.ValueFunc("a", func() any { return 1 }) })
	mustPanic("key inside a key", func() { r.ValueFunc("a.dup.x", func() any { return 1 }) })
	r.ValueFunc("a.dupe", func() any { return 1 }) // a shared prefix that is not a path is fine
}

// TestRegistryJSON pins WriteJSON: dotted keys nest, counters and gauges
// with a key appear beside JSON-only values, a nil value omits its key, and
// values are read at render time.
func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	var n int64
	var note any
	r.CounterFunc("q_total", "server.queries", "q", func() int64 { return n })
	r.GaugeFunc("g_bytes", "", "g", func() int64 { return 42 })
	r.ValueFunc("server.io", func() any { return struct{ BytesRead int64 }{7} })
	r.ValueFunc("server.up", func() any { return 1.5 })
	r.ValueFunc("note", func() any { return note })
	r.NewHistogram("lat_seconds", "latency", ExpBuckets(1e-3, 2, 3))

	render := func() string {
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	n = 3
	if got, want := render(), `{"server":{"io":{"BytesRead":7},"queries":3,"up":1.5}}`+"\n"; got != want {
		t.Fatalf("got %s want %s", got, want)
	}
	n, note = 4, "a<b"
	if got, want := render(), `{"note":"a<b","server":{"io":{"BytesRead":7},"queries":4,"up":1.5}}`+"\n"; got != want {
		t.Fatalf("got %s want %s", got, want)
	}
	// JSON-only values stay off the Prometheus surfaces.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "server") || len(r.Sample()) != 4 {
		t.Fatalf("JSON-only values leaked into the exposition:\n%s", b.String())
	}
}

// TestRegistryExposition validates the full exposition the way a scraper
// would: HELP/TYPE precede every family, each sample line is
// "name[{labels}] value" with a parseable float, and callbacks are read at
// scrape time (a second scrape sees the new counter value).
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var n int64
	r.CounterFunc("q_total", "", "queries\nwith newline", func() int64 { return n })
	r.GaugeFunc("g_bytes", "", "resident", func() int64 { return 42 })
	h := r.NewHistogram("lat_seconds", "latency", ExpBuckets(1e-3, 2, 3))
	h.ObserveDuration(0)

	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	n = 7
	out := scrape()
	if !strings.Contains(out, "q_total 7") {
		t.Fatalf("callback not read at scrape time:\n%s", out)
	}
	if !strings.Contains(out, `queries\nwith newline`) {
		t.Fatalf("HELP newline not escaped:\n%s", out)
	}
	n = 8
	if !strings.Contains(scrape(), "q_total 8") {
		t.Fatal("second scrape must see the new value")
	}

	declared := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", i+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, f[3])
			}
			declared[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: unparseable value in %q: %v", i+1, line, err)
		}
	}
	for _, fam := range []string{"q_total", "g_bytes", "lat_seconds"} {
		if !declared[fam] {
			t.Fatalf("family %s not declared", fam)
		}
	}
}
