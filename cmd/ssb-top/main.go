// Command ssb-top is a terminal dashboard for a running ssb-serve: it
// polls /stats, /debug/summary, and /metrics/history and renders live
// qps, latency percentiles per engine×flight, buffer-pool residency and
// hit ratio, write-store pending, and WAL fsync rate.
//
// Usage:
//
//	ssb-top -addr http://127.0.0.1:8080
//	ssb-top -addr http://127.0.0.1:8080 -once      # one snapshot, no screen control (CI)
//	ssb-top -interval 5s -n 15 -window 300
//
// -once prints a single snapshot and exits zero on success — the CI serve
// job uses it as a smoke test that the whole observability read path
// (stats, recorder summary, metrics history) is live and parseable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the ssb-serve instance")
	interval := flag.Duration("interval", 2*time.Second, "poll cadence in live mode")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen control)")
	n := flag.Int("n", 10, "recent queries to show")
	window := flag.Float64("window", 60, "summary window in seconds")
	flag.Parse()

	c := &client{base: strings.TrimRight(*addr, "/"), http: &http.Client{Timeout: 10 * time.Second}}
	if *once {
		snap, err := c.fetch(*n, *window)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssb-top:", err)
			os.Exit(1)
		}
		render(os.Stdout, c.base, snap)
		return
	}
	for {
		snap, err := c.fetch(*n, *window)
		// Live mode: clear, home, render. An error renders in place of the
		// dashboard so a restarting server shows up as such, not as an exit.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("ssb-top: %s unreachable: %v\n", c.base, err)
		} else {
			render(os.Stdout, c.base, snap)
		}
		time.Sleep(*interval)
	}
}

// client polls one ssb-serve instance.
type client struct {
	base string
	http *http.Client
}

// statsPayload mirrors the fields of /stats the dashboard reads (the
// endpoint carries more; unknown fields are ignored on purpose so ssb-top
// keeps working across server versions).
type statsPayload struct {
	Server struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Goroutines    int     `json:"goroutines"`
		Queries       int64   `json:"queries"`
		Errors        int64   `json:"errors"`
		InFlight      int64   `json:"in_flight"`
		CacheHits     int64   `json:"cache_hits"`
		CacheMisses   int64   `json:"cache_misses"`
		CacheEntries  int     `json:"cache_entries"`
		AdmitWaits    int64   `json:"admit_waits"`
		AdmitRejects  int64   `json:"admit_rejects"`
		Delta         struct {
			PendingRows  int64 `json:"pending_rows"`
			PendingBytes int64 `json:"pending_bytes"`
		} `json:"delta"`
		WAL struct {
			Syncs int64 `json:"syncs"`
		} `json:"wal"`
	} `json:"server"`
	Pool *struct {
		Budget          int64 `json:"budget"`
		Hits            int64 `json:"hits"`
		Misses          int64 `json:"misses"`
		Evictions       int64 `json:"evictions"`
		Resident        int64 `json:"resident"`
		ResidentLogical int64 `json:"resident_logical"`
		Pinned          int   `json:"pinned_frames"`
	} `json:"pool"`
}

// summaryPayload mirrors /debug/summary.
type summaryPayload struct {
	WindowNs  int64 `json:"window_ns"`
	Count     int   `json:"count"`
	Errors    int   `json:"errors"`
	CacheHits int   `json:"cache_hits"`
	Runs      int   `json:"runs"`
	P50Ns     int64 `json:"p50_ns"`
	P95Ns     int64 `json:"p95_ns"`
	P99Ns     int64 `json:"p99_ns"`
	Groups    []struct {
		Engine string `json:"engine"`
		Flight string `json:"flight"`
		Count  int    `json:"count"`
		Runs   int    `json:"runs"`
		P50Ns  int64  `json:"p50_ns"`
		P95Ns  int64  `json:"p95_ns"`
		P99Ns  int64  `json:"p99_ns"`
		MaxNs  int64  `json:"max_ns"`
	} `json:"groups"`
}

// historyPayload mirrors /metrics/history.
type historyPayload struct {
	Samples []struct {
		UnixNano int64              `json:"unix_nano"`
		Values   map[string]float64 `json:"values"`
	} `json:"samples"`
	Rates map[string]float64 `json:"rates"`
	Types map[string]string  `json:"types"`
}

// queriesPayload mirrors /debug/queries.
type queriesPayload struct {
	Count   int `json:"count"`
	Queries []struct {
		Query  string `json:"query"`
		Engine string `json:"engine"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
		WaitNs int64  `json:"wait_ns"`
		ExecNs int64  `json:"exec_ns"`
	} `json:"queries"`
}

// snapshot is one poll of all four endpoints.
type snapshot struct {
	stats   statsPayload
	summary summaryPayload
	history historyPayload
	queries queriesPayload
}

func (c *client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (c *client) fetch(n int, window float64) (*snapshot, error) {
	s := &snapshot{}
	if err := c.get("/stats", &s.stats); err != nil {
		return nil, err
	}
	if err := c.get(fmt.Sprintf("/debug/summary?window=%g", window), &s.summary); err != nil {
		return nil, err
	}
	// sample=1 forces a fresh registry reading so rates are current even
	// when the server's background cadence is long.
	if err := c.get("/metrics/history?sample=1", &s.history); err != nil {
		return nil, err
	}
	if err := c.get(fmt.Sprintf("/debug/queries?n=%d", n), &s.queries); err != nil {
		return nil, err
	}
	return s, nil
}

// render writes the dashboard to w. It is the only output path — main
// injects os.Stdout, tests inject a buffer.
func render(w io.Writer, base string, s *snapshot) {
	sv := &s.stats.Server
	fmt.Fprintf(w, "ssb-top  %s  up %s  goroutines %d  in-flight %d\n",
		base, fmtDur(time.Duration(sv.UptimeSeconds*float64(time.Second))), sv.Goroutines, sv.InFlight)

	qps := s.history.Rates["ssb_queries_total"]
	eps := s.history.Rates["ssb_query_errors_total"]
	fsync := s.history.Rates["ssb_wal_fsyncs_total"]
	fmt.Fprintf(w, "rates    qps %.1f  errors/s %.2f  wal fsync/s %.1f\n", qps, eps, fsync)

	hitRatio := 0.0
	if tot := sv.CacheHits + sv.CacheMisses; tot > 0 {
		hitRatio = float64(sv.CacheHits) / float64(tot)
	}
	fmt.Fprintf(w, "queries  total %d  errors %d  cache %d/%d (%.0f%% hit, %d entries)  admit waits %d rejects %d\n",
		sv.Queries, sv.Errors, sv.CacheHits, sv.CacheMisses, 100*hitRatio, sv.CacheEntries, sv.AdmitWaits, sv.AdmitRejects)

	if p := s.stats.Pool; p != nil {
		poolRatio := 0.0
		if tot := p.Hits + p.Misses; tot > 0 {
			poolRatio = float64(p.Hits) / float64(tot)
		}
		fmt.Fprintf(w, "pool     %s / %s resident (%s logical)  %.1f%% hit  evictions %d  pinned %d\n",
			fmtBytes(p.Resident), fmtBytes(p.Budget), fmtBytes(p.ResidentLogical), 100*poolRatio, p.Evictions, p.Pinned)
	}
	if sv.Delta.PendingRows > 0 || sv.WAL.Syncs > 0 {
		fmt.Fprintf(w, "ingest   ws pending %d rows / %s  wal syncs %d\n",
			sv.Delta.PendingRows, fmtBytes(sv.Delta.PendingBytes), sv.WAL.Syncs)
	}

	sum := &s.summary
	fmt.Fprintf(w, "\nlast %s  %d queries (%d runs, %d cached, %d errors)  p50 %s  p95 %s  p99 %s\n",
		fmtDur(time.Duration(sum.WindowNs)), sum.Count, sum.Runs, sum.CacheHits, sum.Errors,
		fmtNs(sum.P50Ns), fmtNs(sum.P95Ns), fmtNs(sum.P99Ns))
	if len(sum.Groups) > 0 {
		fmt.Fprintf(w, "%-11s %-7s %6s %10s %10s %10s %10s\n", "engine", "flight", "runs", "p50", "p95", "p99", "max")
		groups := sum.Groups
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].Count > groups[j].Count })
		for _, g := range groups {
			fmt.Fprintf(w, "%-11s %-7s %6d %10s %10s %10s %10s\n",
				g.Engine, g.Flight, g.Runs, fmtNs(g.P50Ns), fmtNs(g.P95Ns), fmtNs(g.P99Ns), fmtNs(g.MaxNs))
		}
	}

	if len(s.queries.Queries) > 0 {
		fmt.Fprintf(w, "\nrecent queries (newest first)\n")
		for _, q := range s.queries.Queries {
			status := "ok"
			switch {
			case q.Error != "":
				status = "ERR " + q.Error
			case q.Cached:
				status = "cached"
			}
			fmt.Fprintf(w, "  %-8s %-10s wait %-9s exec %-9s %s\n",
				q.Query, q.Engine, fmtNs(q.WaitNs), fmtNs(q.ExecNs), status)
		}
	}
}

// fmtNs renders a nanosecond latency human-first.
func fmtNs(ns int64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%dns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}

// fmtBytes renders a byte count human-first.
func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "0B"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}

// fmtDur renders an uptime/window duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%.0fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
}
