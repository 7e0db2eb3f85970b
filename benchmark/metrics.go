package main

import (
	"math"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json; the smoke test holds the
// two lists equal.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of the server sees. README.md derives the bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_geomean_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"disk_bytes_per_row", "B/row", "lower", 0.05},
}

// perLayer is one metric per layer boundary; the prefix is the module the
// number belongs to. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// Traced HTTP run.
	{Name: "server.rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rtt_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cpu_ms_per_query_mean", Unit: "ms", Better: "lower"},
	{Name: "server.front_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.front_share_pct", Unit: "%", Better: "lower"},
	{Name: "server.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.admit_wait_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.plan_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "exec.probe_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "exec.aggregate_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "exec.ws_scan_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "exec.blocks_fetched_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.blocks_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "exec.decoded_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "exec.kernel_folds_per_query", Unit: "count", Better: "higher"},
	{Name: "exec.gathers_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "segstore.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "segstore.read_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "segstore.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "segstore.append_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "segstore.file_growth_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "delta.compactions", Unit: "count", Better: "higher"},
	{Name: "delta.pending_rows_peak", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_insert", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "wal.rewrites", Unit: "count", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "server.insert_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.insert_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.insert_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
	// In-process ladder.
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "ssb.sql_render_us", Unit: "us", Better: "lower"},
	{Name: "core.run_ms.f1", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms.f2", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms.f3", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms.f4", Unit: "ms", Better: "lower"},
	{Name: "exec.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "server.execute_miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.execute_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.insert_front_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.acquire_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "segstore.miss_us", Unit: "us", Better: "lower"},
	{Name: "segstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "compress.filter_rle_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.filter_bitpack_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.filterset_bitpack_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.aggselect_rle_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.aggselect_bitpack_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.gatherselect_bitpack_ns", Unit: "ns/value", Better: "lower"},
	{Name: "compress.decode_wire_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "bitmap.and_count_ns_per_kbit", Unit: "ns/kbit", Better: "lower"},
	{Name: "wal.commit_us", Unit: "us", Better: "lower"},
	{Name: "exec.insert_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.compact_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ssb.generate_s", Unit: "s", Better: "lower"},
	{Name: "exec.build_s", Unit: "s", Better: "lower"},
	{Name: "segstore.save_s", Unit: "s", Better: "lower"},
	// Paper guard: the ablation engines, through ssb-bench -json.
	{Name: "rowexec.fig5_rs_avg_s", Unit: "s", Better: "lower"},
	{Name: "rowexec.fig5_rsmv_avg_s", Unit: "s", Better: "lower"},
	{Name: "exec.fig5_cs_avg_s", Unit: "s", Better: "lower"},
	{Name: "exec.fig5_csrowmv_avg_s", Unit: "s", Better: "lower"},
	{Name: "exec.fig7_tICL_avg_s", Unit: "s", Better: "lower"},
	{Name: "exec.fig7_Ticl_avg_s", Unit: "s", Better: "lower"},
	// Host-disturbance marker.
	{Name: "host.spin_before_ms", Unit: "ms", Better: "lower"},
	{Name: "host.spin_after_ms", Unit: "ms", Better: "lower"},
}

// measured is one metric's value and how many samples it summarises.
type measured struct {
	value   float64
	samples int
}

type metricSet struct {
	vals map[string]measured
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]measured{}} }

func (m *metricSet) set(name string, value float64, samples int) {
	m.vals[name] = measured{value, samples}
}

// percentile is the nearest-rank percentile of vals (p in (0,100]); 0 when
// there are no samples.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
