// Package obs is the observability layer: a per-query execution trace
// (the data behind EXPLAIN ANALYZE, /query?trace=1 and the slow-query
// log) and a dependency-free metrics registry that renders one list of
// numbers as Prometheus text exposition format for /metrics and as the
// JSON document served at /stats.
//
// The package deliberately imports nothing but the standard library so
// every layer of the engine — compress, colstore, exec, server — can
// depend on it without cycles.
package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// StageCounters is the per-stage slice of a query's work. Every field is
// additive: engines that run a stage across workers merge per-worker
// counters by summation, which keeps traced counter totals deterministic
// for a given plan regardless of worker count.
type StageCounters struct {
	// RowsIn/RowsOut are the candidate counts entering and surviving the
	// stage (positions for probes, rows for scans and aggregation).
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// BlocksPruned counts blocks skipped entirely by a zone-map bound,
	// BlocksCovered blocks accepted entirely by one (no fetch either way),
	// and BlocksFetched blocks actually acquired from the segment pool or
	// in-memory column.
	BlocksPruned  int64 `json:"blocks_pruned"`
	BlocksCovered int64 `json:"blocks_covered"`
	BlocksFetched int64 `json:"blocks_fetched"`
	// BytesRead is the simulated compressed I/O charged to the stage.
	BytesRead int64 `json:"bytes_read"`
	// DecodedBytes counts bytes materialized as raw int32 values (4 bytes
	// per value): this stage's share of iosim.Stats.DecodedBytes.
	DecodedBytes int64 `json:"decoded_bytes"`
	// KernelFolds counts operations executed natively on the compressed
	// representation (Filter/FilterSet/FilterFunc/AggSelect); Gathers
	// counts value-materializing operations (AppendTo/Gather/GatherSelect).
	KernelFolds int64 `json:"kernel_folds"`
	Gathers     int64 `json:"gathers"`
	// Tombstoned counts rows masked by deletion vectors in this stage.
	Tombstoned int64 `json:"tombstoned"`
	// WallNs is monotonic wall clock spent in the stage. Parallel stages
	// report the summed per-worker time (work time), which can exceed the
	// query's elapsed wall clock.
	WallNs int64 `json:"wall_ns"`
}

// Add folds o into c field by field.
func (c *StageCounters) Add(o StageCounters) {
	c.RowsIn += o.RowsIn
	c.RowsOut += o.RowsOut
	c.BlocksPruned += o.BlocksPruned
	c.BlocksCovered += o.BlocksCovered
	c.BlocksFetched += o.BlocksFetched
	c.BytesRead += o.BytesRead
	c.DecodedBytes += o.DecodedBytes
	c.KernelFolds += o.KernelFolds
	c.Gathers += o.Gathers
	c.Tombstoned += o.Tombstoned
	c.WallNs += o.WallNs
}

// Stage is one named step of the executed plan: planning, one join/filter
// probe, the deletion mask, extraction+aggregation, or the write-store scan.
type Stage struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	StageCounters
}

// Trace records what one query execution actually did: the plan shape the
// executor chose and a counter record per stage. A nil *Trace is valid
// everywhere and records nothing — engines test the pointer once per
// block-sized unit of work, so the untraced hot path pays one compare.
type Trace struct {
	Query   string  `json:"query,omitempty"`
	SQL     string  `json:"sql,omitempty"`
	Engine  string  `json:"engine"`
	Config  string  `json:"config"`
	Workers int     `json:"workers"`
	Epoch   int64   `json:"epoch"`
	WallNs  int64   `json:"wall_ns"`
	Stages  []Stage `json:"stages"`
}

// AddStage appends a completed stage record. Nil-safe.
func (t *Trace) AddStage(name, detail string, c StageCounters) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, Stage{Name: name, Detail: detail, StageCounters: c})
}

// Totals sums the counters across all stages.
func (t *Trace) Totals() StageCounters {
	var tot StageCounters
	if t == nil {
		return tot
	}
	for i := range t.Stages {
		tot.Add(t.Stages[i].StageCounters)
	}
	return tot
}

type ctxKey struct{}

// WithTrace returns a context carrying t. The executor extracts it once
// per query at RunCtx entry, so no signature above exec changes.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// humanBytes renders a byte count with a binary-ish short unit, fixed to
// one decimal so trace tables line up.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func humanNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// Render writes the human-readable stage table (the EXPLAIN ANALYZE
// output) to w.
func (t *Trace) Render(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "query=%s engine=%s config=%s workers=%d epoch=%d wall=%s\n",
		t.Query, t.Engine, t.Config, t.Workers, t.Epoch, humanNs(t.WallNs))
	if t.SQL != "" {
		fmt.Fprintf(w, "sql: %s\n", t.SQL)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "stage\trows in\trows out\tpruned\tcovered\tfetched\tread\tdecoded\tfolds\tgathers\twall\t")
	row := func(name string, c StageCounters) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t\n",
			name, c.RowsIn, c.RowsOut, c.BlocksPruned, c.BlocksCovered,
			c.BlocksFetched, humanBytes(c.BytesRead), humanBytes(c.DecodedBytes),
			c.KernelFolds, c.Gathers, humanNs(c.WallNs))
	}
	for i := range t.Stages {
		s := &t.Stages[i]
		name := s.Name
		if s.Detail != "" {
			name += " " + s.Detail
		}
		row(name, s.StageCounters)
	}
	tot := t.Totals()
	tot.WallNs = t.WallNs
	row("total", tot)
	tw.Flush()
	if tot.Tombstoned > 0 {
		fmt.Fprintf(w, "tombstones masked: %d\n", tot.Tombstoned)
	}
}

// String renders the stage table to a string.
func (t *Trace) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CompactLine renders the one-line form used by the slow-query log:
// plan shape, total counters, and per-stage wall clock.
func (t *Trace) CompactLine() string {
	if t == nil {
		return ""
	}
	tot := t.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "query=%s engine=%s config=%s workers=%d epoch=%d wall=%s read=%s decoded=%s fetched=%d pruned=%d covered=%d folds=%d gathers=%d tombstoned=%d stages=[",
		t.Query, t.Engine, t.Config, t.Workers, t.Epoch, humanNs(t.WallNs),
		humanBytes(tot.BytesRead), humanBytes(tot.DecodedBytes),
		tot.BlocksFetched, tot.BlocksPruned, tot.BlocksCovered,
		tot.KernelFolds, tot.Gathers, tot.Tombstoned)
	for i := range t.Stages {
		s := &t.Stages[i]
		if i > 0 {
			b.WriteByte(' ')
		}
		name := s.Name
		if s.Detail != "" {
			name += "(" + s.Detail + ")"
		}
		fmt.Fprintf(&b, "%s:%d/%d:%s", name, s.RowsIn, s.RowsOut, humanNs(s.WallNs))
	}
	b.WriteByte(']')
	return b.String()
}
