package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	why string
	run func(e *env, m *metricSet) error
}

// workloads is the benchmark's workload set; the why lines are repeated in
// BENCHMARK.json and explained at length in README.md.
var workloads = map[string]workload{
	"scan_warm": {
		why: "13 SSBM queries, warm unbounded pool, no result cache: engine-bound (exec, colstore, compress)",
		run: func(e *env, m *metricSet) error { return runReadOnly(e, m, scanTraffic(), "-cache", "-1") },
	},
	"scan_bounded": {
		why: "same traffic with the pool at half the compressed working set: segstore miss/evict, pread+CRC and wire decode",
		run: func(e *env, m *metricSet) error {
			return runReadOnly(e, m, scanTraffic(), "-cache", "-1", "-mem-budget", fmt.Sprint(boundedPoolMB(e.cfg.sf)))
		},
	},
	"serve_hot": {
		why: "2 clients, Zipf over 100 distinct requests, all result-cache hits: front-end-bound (HTTP, sql.Parse, cache key, render)",
		run: func(e *env, m *metricSet) error {
			t, err := hotTraffic()
			if err != nil {
				return err
			}
			return runReadOnly(e, m, t, "-cache", "256")
		},
	},
	"ingest_mixed": {
		why: "open-loop durable inserts beside a closed-loop reader, then a write burst, SIGKILL and recovery: wal, delta, compaction",
		run: runIngestMixed,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// boundedPoolMB is scan_bounded's pool budget: half of the compressed bytes
// the 13 queries touch (60.6 MB at SF=1, proportional to SF).
func boundedPoolMB(sf float64) float64 { return 30 * sf }

// traffic is a closed-loop request stream: each client sends its next
// request when the previous one completes. Work is organised in chunks —
// the unit of warm-up, of tracing alternation and of the throughput slices.
type traffic struct {
	reqs    []request
	clients int
	// chunk returns a client's next chunk of request indexes.
	chunk func(rng *rand.Rand) []int
	// warm returns a client's warm-up chunks: every request at least once
	// across the clients (so caches and pools fill), then two more chunks.
	warm func(client int, rng *rand.Rand) [][]int
}

// scanTraffic is one client running the 13 SSBM queries by id, a fresh
// seeded permutation per pass.
func scanTraffic() *traffic {
	reqs := idRequests()
	pass := func(rng *rand.Rand) []int { return rng.Perm(len(reqs)) }
	return &traffic{
		reqs:    reqs,
		clients: 1,
		chunk:   pass,
		warm:    func(_ int, rng *rand.Rand) [][]int { return [][]int{pass(rng), pass(rng), pass(rng)} },
	}
}

// hotTraffic is two clients drawing Zipf-distributed requests from the 13
// ids plus the ad-hoc SQL pool. Rank order is fixed (ids first), so every
// seed sees the same popularity-weighted mix.
func hotTraffic() (*traffic, error) {
	adhoc, err := adhocRequests()
	if err != nil {
		return nil, err
	}
	reqs := append(idRequests(), adhoc...)
	draw := func(rng *rand.Rand) []int {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(reqs)-1))
		out := make([]int, hotChunk)
		for i := range out {
			out[i] = int(z.Uint64())
		}
		return out
	}
	const clients = 2
	return &traffic{
		reqs:    reqs,
		clients: clients,
		chunk:   draw,
		warm: func(client int, rng *rand.Rand) [][]int {
			var mine []int
			for i := client; i < len(reqs); i += clients {
				mine = append(mine, i)
			}
			return [][]int{mine, draw(rng), draw(rng)}
		},
	}, nil
}

// sample is one completed query.
type sample struct {
	req   int32
	rttNs int64
}

// chunkStat is one completed chunk: the slice the level metrics are
// computed on.
type chunkStat struct {
	n      int
	durNs  int64
	p50Ms  float64
	traced bool
}

// layerAcc accumulates what traced responses say about the layers.
type layerAcc struct {
	frontMs, execMs []float64 // per traced request / per engine run
	rttNs           int64
	frontNs         int64
	waitNs          int64
	unattributedNs  int64
	stageNs         map[string]int64
	fetched         int64
	pruned          int64
	decoded         int64
	folds           int64
	gathers         int64
	rowsIn          int64
	rowsOut         int64
}

func (l *layerAcc) add(o *layerAcc) {
	l.frontMs = append(l.frontMs, o.frontMs...)
	l.execMs = append(l.execMs, o.execMs...)
	l.rttNs += o.rttNs
	l.frontNs += o.frontNs
	l.waitNs += o.waitNs
	l.unattributedNs += o.unattributedNs
	for name, ns := range o.stageNs {
		l.stageNs[name] += ns
	}
	l.fetched += o.fetched
	l.pruned += o.pruned
	l.decoded += o.decoded
	l.folds += o.folds
	l.gathers += o.gathers
	l.rowsIn += o.rowsIn
	l.rowsOut += o.rowsOut
}

// clientLog is everything one client observed.
type clientLog struct {
	samples []sample
	chunks  []chunkStat
	layers  layerAcc
}

// doQuery sends one query, verifies the answer and records the sample.
func (e *env) doQuery(base string, r *request, idx int, traced bool, v *verifier, log *clientLog) {
	path, body := r.path, r.body
	if traced {
		path, body = r.tracedPath, r.tracedBody
	}
	status, payload, start, rtt, err := e.client.roundTrip(base, path, body)
	if err != nil {
		e.ops.fail("%s: %v", r.key, err)
		return
	}
	if status != http.StatusOK {
		e.ops.fail("%s: status %d: %s", r.key, status, payload)
		return
	}
	var rep queryReply
	if err := json.Unmarshal(payload, &rep); err != nil {
		e.ops.fail("%s: undecodable response: %v", r.key, err)
		return
	}
	if v != nil && !v.check(r.key, rep.Rows) {
		e.ops.fail("%s: answer differs from the reference or from the first response", r.key)
		return
	}
	e.ops.ok()
	if log == nil {
		return
	}
	e.answered.Add(1)
	log.samples = append(log.samples, sample{req: int32(idx), rttNs: int64(rtt)})
	if !traced {
		return
	}
	front, execSelf := e.spans.recordRequest(r.key, start, rtt, &rep)
	l := &log.layers
	l.frontMs = append(l.frontMs, float64(front)/1e6)
	l.rttNs += int64(rtt)
	l.frontNs += front
	l.waitNs += rep.WaitNs
	l.unattributedNs += front + execSelf
	if rep.Cached {
		return
	}
	l.execMs = append(l.execMs, float64(rep.CPUNs)/1e6)
	if rep.Trace == nil {
		return
	}
	var rowsIn int64
	for _, st := range rep.Trace.Stages {
		l.stageNs[st.Name] += st.WallNs
		l.fetched += st.BlocksFetched
		l.pruned += st.BlocksPruned
		l.decoded += st.DecodedBytes
		l.folds += st.KernelFolds
		l.gathers += st.Gathers
		rowsIn = max(rowsIn, st.RowsIn)
	}
	l.rowsIn += rowsIn
	l.rowsOut += int64(max(len(rep.Rows), 1))
}

// drive runs the traffic's clients against base. With warm set each client
// runs its warm-up chunks; otherwise each runs whole chunks until the
// deadline passes. In a traced run every other measured chunk asks for
// traces, so traced and untraced throughput are compared under the same
// conditions.
func (e *env) drive(base string, t *traffic, v *verifier, salt int64, warm bool, deadline time.Time) []*clientLog {
	logs := make([]*clientLog, t.clients)
	var wg sync.WaitGroup
	for c := 0; c < t.clients; c++ {
		log := &clientLog{layers: layerAcc{stageNs: map[string]int64{}}}
		logs[c] = log
		rng := rand.New(rand.NewSource(e.cfg.seed*7919 + salt*104729 + int64(c)))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runChunk := func(chunk []int, traced bool) {
				first, start := len(log.samples), time.Now()
				for _, idx := range chunk {
					e.doQuery(base, &t.reqs[idx], idx, traced, v, log)
				}
				c := chunkStat{n: len(chunk), durNs: int64(time.Since(start)), traced: traced}
				ms := make([]float64, 0, len(chunk))
				for _, s := range log.samples[first:] {
					ms = append(ms, float64(s.rttNs)/1e6)
				}
				c.p50Ms = percentile(ms, 50)
				log.chunks = append(log.chunks, c)
			}
			if warm {
				for _, chunk := range t.warm(c, rng) {
					runChunk(chunk, false)
				}
				return
			}
			for i := 0; time.Now().Before(deadline); i++ {
				runChunk(t.chunk(rng), e.cfg.trace && i%2 == 1)
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// setUp spawns the server and warms it, cfg.setups times over (once in a
// traced run, which does not report setup_s); the last instance is returned
// for the measured window. prepare runs before each spawn and returns that
// instance's flags.
func (e *env) setUp(m *metricSet, t *traffic, v *verifier, prepare func() ([]string, error)) (*serverProc, error) {
	n := e.cfg.setups
	if e.cfg.trace {
		n = 1
	}
	var times []float64
	var srv *serverProc
	for i := 0; i < n; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping warmed server: %w", err)
			}
		}
		args, err := prepare()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if srv, err = startServer(e, "serve.log", args...); err != nil {
			return nil, err
		}
		e.drive(srv.base, t, v, int64(-1-i), true, time.Time{})
		times = append(times, time.Since(start).Seconds())
	}
	m.set("setup_s", median(times), len(times))
	return srv, nil
}

// window is one measured interval: what the clients saw and what the
// server's counters say.
type window struct {
	st0, st1   *serverStats
	cpu0, cpu1 int64
	logs       []*clientLog
	// sliceCPUMs is the server's CPU milliseconds per answered query in each
	// cpuSlice of the window.
	sliceCPUMs []float64
}

// cpuSlice is the length of the slices cpu_ms_per_query is computed on:
// long enough that every slice of ingest_mixed holds a compaction.
const cpuSlice = 2 * time.Second

// measure runs the traffic for the configured window between two /stats
// and CPU readings.
func (e *env) measure(srv *serverProc, t *traffic, v *verifier, seconds float64, beside func()) (*window, error) {
	var w window
	var err error
	if w.st0, err = e.client.stats(srv.base); err != nil {
		return nil, err
	}
	if w.cpu0, err = srv.cpuTicks(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	if beside != nil {
		wg.Add(1)
		go func() { defer wg.Done(); beside() }()
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(cpuSlice)
		defer tick.Stop()
		cpu, answered := w.cpu0, e.answered.Load()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c, err := srv.cpuTicks()
				a := e.answered.Load()
				if err == nil && a > answered {
					w.sliceCPUMs = append(w.sliceCPUMs, float64(c-cpu)*1000/ticksPerSecond/float64(a-answered))
				}
				cpu, answered = c, a
			}
		}
	}()
	w.logs = e.drive(srv.base, t, v, 0, false, time.Now().Add(time.Duration(seconds*float64(time.Second))))
	close(stop)
	<-sampled
	wg.Wait()
	if w.cpu1, err = srv.cpuTicks(); err != nil {
		return nil, err
	}
	if w.st1, err = e.client.stats(srv.base); err != nil {
		return nil, err
	}
	return &w, nil
}

// runReadOnly is the three read-only workloads: set up, measure, drain.
func runReadOnly(e *env, m *metricSet, t *traffic, serverArgs ...string) error {
	v := newVerifier(e.ans.Results)
	args := append([]string{"-data", e.segPath, "-workers", "2"}, serverArgs...)
	srv, err := e.setUp(m, t, v, func() ([]string, error) { return args, nil })
	if err != nil {
		return err
	}
	w, err := e.measure(srv, t, v, e.cfg.seconds, nil)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	m.set("peak_rss_mb", rss, 1)
	if err := srv.stop(); err != nil {
		return fmt.Errorf("graceful drain: %w", err)
	}
	fi, err := os.Stat(e.segPath)
	if err != nil {
		return err
	}
	m.set("disk_bytes_per_row", float64(fi.Size())/float64(e.ans.Rows), 1)
	queryMetrics(m, t, w)
	layerMetrics(m, w)
	ingestLayerZeros(m)
	return nil
}

// queryMetrics derives the query metrics from a window.
//
// The host under this benchmark changes speed every few seconds, for seconds
// to minutes at a time, and it moves every level metric by the same factor:
// pooled over the window, serve_hot's median, rate and CPU per query spread
// 21-25 % between runs of one commit, past the widest bound the manifest
// allows (README.md, A/A record 6). What repeats from run to run is the
// undisturbed level. So each level metric is computed per slice — a chunk for
// the median and the rate, a cpuSlice for CPU, a request's own samples for
// the geomean — and the run reports the slice at the undisturbed decile
// (quartile for the few CPU slices). The tail metric is not treated so:
// query_p95_ms is the window's own 95th percentile, every sample counted, so
// a stall that hits one request in twenty reaches a bounded metric. Nothing
// is rescaled, and the pooled level numbers are reported beside the others.
func queryMetrics(m *metricSet, t *traffic, w *window) {
	var rtts, p50s, rates, tracedRates, untracedRates []float64
	byReq := map[int32][]float64{}
	for _, log := range w.logs {
		for _, s := range log.samples {
			ms := float64(s.rttNs) / 1e6
			rtts = append(rtts, ms)
			byReq[s.req] = append(byReq[s.req], ms)
		}
		for _, c := range log.chunks {
			p50s = append(p50s, c.p50Ms)
			r := float64(c.n) / (float64(c.durNs) / 1e9)
			rates = append(rates, r)
			if c.traced {
				tracedRates = append(tracedRates, r)
			} else {
				untracedRates = append(untracedRates, r)
			}
		}
	}
	n, chunks := len(rtts), len(rates)
	m.set("query_p50_ms", percentile(p50s, 10), chunks)
	m.set("query_p95_ms", percentile(rtts, 95), n)
	// Geomean over the distinct requests, so a win on a cheap query is not
	// drowned by the expensive ones.
	var floors []float64
	for _, ms := range byReq {
		floors = append(floors, percentile(ms, 10))
	}
	m.set("query_geomean_ms", geomean(floors), len(floors))
	// Each client is a closed loop, so the workload's rate is the clients'
	// rates added up.
	m.set("queries_per_s", float64(t.clients)*percentile(rates, 90), chunks)
	cpuMean := ratio(float64(w.cpu1-w.cpu0)*1000/ticksPerSecond, float64(n))
	if len(w.sliceCPUMs) == 0 {
		w.sliceCPUMs = []float64{cpuMean} // a window shorter than one slice
	}
	m.set("cpu_ms_per_query", percentile(w.sliceCPUMs, 25), len(w.sliceCPUMs))

	// The pooled level numbers, host disturbance included; the traced run
	// reports its own p95 too, since its result line holds only these.
	m.set("server.rtt_p50_ms", percentile(rtts, 50), n)
	m.set("server.rtt_p95_ms", percentile(rtts, 95), n)
	m.set("server.cpu_ms_per_query_mean", cpuMean, n)
	overhead := 0.0
	if len(tracedRates) > 0 {
		overhead = 100 * (1 - ratio(median(tracedRates), median(untracedRates)))
	}
	m.set("obs.trace_overhead_pct", overhead, len(tracedRates))
}

// layerMetrics derives the per-layer metrics of the traced HTTP run from
// the traced responses and the /stats deltas.
func layerMetrics(m *metricSet, w *window) {
	acc := layerAcc{stageNs: map[string]int64{}}
	for _, log := range w.logs {
		acc.add(&log.layers)
	}
	nq, runs := len(acc.frontMs), float64(len(acc.execMs))
	m.set("server.front_p50_ms", percentile(acc.frontMs, 50), nq)
	m.set("server.front_share_pct", 100*ratio(float64(acc.frontNs), float64(acc.rttNs)), nq)
	m.set("server.exec_p50_ms", percentile(acc.execMs, 50), int(runs))
	m.set("server.admit_wait_ms_per_query", ratio(float64(acc.waitNs)/1e6, float64(nq)), nq)
	m.set("trace.unattributed_pct", 100*ratio(float64(acc.unattributedNs), float64(acc.rttNs)), nq)
	perRun := func(name string, total int64) { m.set(name, ratio(float64(total), runs), int(runs)) }
	stageMs := func(name, stage string) { m.set(name, ratio(float64(acc.stageNs[stage])/1e6, runs), int(runs)) }
	stageMs("exec.plan_ms_per_query", "plan")
	stageMs("exec.probe_ms_per_query", "probe")
	stageMs("exec.aggregate_ms_per_query", "extract+aggregate")
	stageMs("exec.ws_scan_ms_per_query", "ws-scan")
	perRun("exec.blocks_fetched_per_query", acc.fetched)
	perRun("exec.blocks_pruned_per_query", acc.pruned)
	perRun("exec.decoded_bytes_per_query", acc.decoded)
	perRun("exec.kernel_folds_per_query", acc.folds)
	perRun("exec.gathers_per_query", acc.gathers)
	m.set("exec.rows_in_per_row_out", ratio(float64(acc.rowsIn), float64(acc.rowsOut)), int(runs))

	// Server-side counters cover the whole window, traced or not.
	s0, s1 := w.st0, w.st1
	served := float64(s1.Server.Queries - s0.Server.Queries)
	hits := float64(s1.Server.CacheHits - s0.Server.CacheHits)
	misses := float64(s1.Server.CacheMisses - s0.Server.CacheMisses)
	m.set("server.cache_hit_ratio", ratio(hits, hits+misses), int(served))
	poolHits := float64(s1.Pool.Hits - s0.Pool.Hits)
	poolMisses := float64(s1.Pool.Misses - s0.Pool.Misses)
	m.set("segstore.pool_hit_ratio", ratio(poolHits, poolHits+poolMisses), int(poolHits+poolMisses))
	m.set("segstore.read_bytes_per_query", ratio(float64(s1.Pool.BytesRead-s0.Pool.BytesRead), served), int(served))
	m.set("segstore.evictions_per_query", ratio(float64(s1.Pool.Evictions-s0.Pool.Evictions), served), int(served))
}

// ingestLayerZeros reports the write-path layers for a workload that never
// writes: they did no work, and the report says so.
func ingestLayerZeros(m *metricSet) {
	for _, name := range []string{
		"segstore.append_bytes_per_row", "segstore.file_growth_bytes_per_row",
		"delta.compactions", "delta.pending_rows_peak",
		"wal.fsyncs_per_insert", "wal.bytes_per_row", "wal.rewrites", "wal.recover_ms",
		"server.insert_rows_per_s", "server.insert_p50_ms", "server.insert_p95_ms", "server.insert_late_p95_ms",
	} {
		m.set(name, 0, 0)
	}
}
