package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRecorderRing pins the ring semantics: newest-first snapshots,
// overwrite at capacity, monotone sequence numbers.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	if r.Cap() != 4 || r.Len() != 0 {
		t.Fatalf("fresh recorder: cap=%d len=%d", r.Cap(), r.Len())
	}
	for i := 1; i <= 6; i++ {
		seq := r.Record(QueryRecord{Query: fmt.Sprintf("q%d", i), UnixNano: int64(i)})
		if seq != int64(i) {
			t.Fatalf("record %d assigned seq %d", i, seq)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d after overflow, want 4", r.Len())
	}
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i, want := range []string{"q6", "q5", "q4", "q3"} {
		if snap[i].Query != want {
			t.Fatalf("snapshot[%d] = %s, want %s (newest first)", i, snap[i].Query, want)
		}
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq >= snap[i-1].Seq {
			t.Fatalf("seq not descending: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Query != "q6" {
		t.Fatalf("Snapshot(2) = %+v", got)
	}
	// A snapshot larger than the ring clamps.
	if got := r.Snapshot(100); len(got) != 4 {
		t.Fatalf("Snapshot(100) len %d", len(got))
	}
}

// TestRecorderBoundedMemory asserts the overflow contract the "always-on"
// promise rests on: after any number of records, the ring holds exactly
// cap entries, the newest ones.
func TestRecorderBoundedMemory(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 10_000; i++ {
		r.Record(QueryRecord{Query: fmt.Sprint(i)})
	}
	if r.Len() != 8 || r.Cap() != 8 {
		t.Fatalf("after 10k records: len=%d cap=%d", r.Len(), r.Cap())
	}
	if newest := r.Snapshot(1)[0]; newest.Query != "9999" || newest.Seq != 10_000 {
		t.Fatalf("newest = %+v", newest)
	}
	// A degenerate capacity clamps to 1 instead of panicking.
	if NewRecorder(-5).Cap() != 1 {
		t.Fatal("NewRecorder(-5) must clamp to 1")
	}
}

// TestRecorderConcurrent is the -race hammer: concurrent Record, Snapshot,
// and Summary must be safe and leave a consistent ring.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Record(QueryRecord{
					Query:    "1.1",
					Engine:   "fused",
					UnixNano: int64(i),
					ExecNs:   int64(w*1000 + i),
				})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot(0)
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq >= snap[i-1].Seq {
					t.Errorf("snapshot seq order violated under concurrency")
					return
				}
			}
			_ = r.Summary(1<<40, 0)
		}
	}()
	// Give the writers time to finish, then halt the reader.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.Len() > r.Cap() {
		t.Fatalf("len %d exceeds cap %d", r.Len(), r.Cap())
	}
}

// TestRecorderSummary pins the windowed engine×flight rollup: grouping,
// percentiles over successful runs only, error/cache-hit tallies, and the
// window cut.
func TestRecorderSummary(t *testing.T) {
	r := NewRecorder(64)
	now := int64(1_000_000_000_000)
	// 100 fused flight-1 runs with latencies 1..100 (shuffled deterministically).
	for i := 1; i <= 100; i++ {
		r.Record(QueryRecord{
			Query: "1.1", Engine: "fused", UnixNano: now,
			ExecNs: int64((i*37)%100 + 1),
		})
	}
	// Overwrite pressure: the above only keeps the last 64; rebuild exact.
	r = NewRecorder(256)
	for i := 1; i <= 100; i++ {
		r.Record(QueryRecord{
			Query: "1.1", Engine: "fused", UnixNano: now,
			ExecNs: int64((i*37)%100 + 1),
		})
	}
	r.Record(QueryRecord{Query: "2.3", Engine: "per-probe", UnixNano: now, ExecNs: 500})
	r.Record(QueryRecord{Query: "1.2", Engine: "cache", UnixNano: now, Cached: true})
	r.Record(QueryRecord{Query: "fuzz-7", Engine: "fused", UnixNano: now, Error: "boom"})
	// An old record outside the window.
	r.Record(QueryRecord{Query: "1.3", Engine: "fused", UnixNano: now - 120e9, ExecNs: 9999})

	s := r.Summary(now, 60e9)
	if s.Count != 103 {
		t.Fatalf("windowed count %d, want 103 (the stale record excluded)", s.Count)
	}
	if s.Errors != 1 || s.CacheHits != 1 || s.Runs != 101 {
		t.Fatalf("errors=%d cacheHits=%d runs=%d", s.Errors, s.CacheHits, s.Runs)
	}
	if len(s.Groups) != 4 {
		t.Fatalf("groups: %+v", s.Groups)
	}
	// Sorted by engine then flight: cache/1, fused/1, fused/adhoc, per-probe/2.
	var fused1 *SummaryGroup
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Engine == "fused" && g.Flight == "1" {
			fused1 = g
		}
	}
	if fused1 == nil {
		t.Fatalf("no fused/1 group in %+v", s.Groups)
	}
	if fused1.Runs != 100 || fused1.P50Ns != 50 || fused1.P95Ns != 95 || fused1.P99Ns != 99 || fused1.MaxNs != 100 {
		t.Fatalf("fused/1 percentiles: %+v", fused1)
	}
	// Unwindowed summary sees the stale record too.
	if all := r.Summary(now, 0); all.Count != 104 {
		t.Fatalf("unwindowed count %d, want 104", all.Count)
	}
}

// TestQueryRecordFlight pins the flight derivation.
func TestQueryRecordFlight(t *testing.T) {
	for q, want := range map[string]string{
		"1.1": "1", "4.3": "4", "11.2": "11",
		"fuzz-42": "adhoc", "http": "adhoc", "": "adhoc", "x.y": "adhoc",
	} {
		if got := (&QueryRecord{Query: q}).Flight(); got != want {
			t.Errorf("Flight(%q) = %q, want %q", q, got, want)
		}
	}
}

// TestHistoryRing covers the snapshotter: sampling a live registry,
// ring overflow, counter/gauge typing, and rate math including resets.
func TestHistoryRing(t *testing.T) {
	var queries, resident int64
	reg := NewRegistry()
	reg.CounterFunc("q_total", "", "q", func() int64 { return queries })
	reg.GaugeFunc("res_bytes", "", "r", func() int64 { return resident })
	h := NewHistory(reg, 3)

	queries, resident = 10, 100
	h.Sample(1e9)
	queries, resident = 40, 50
	h.Sample(3e9)
	if h.Len() != 2 {
		t.Fatalf("len %d", h.Len())
	}
	rates := h.Rates()
	if got := rates["q_total"]; got != 15 {
		t.Fatalf("q_total rate %g, want 15 (30 over 2s)", got)
	}
	if _, ok := rates["res_bytes"]; ok {
		t.Fatal("gauge must not get a rate")
	}
	if h.SeriesType("q_total") != "counter" || h.SeriesType("res_bytes") != "gauge" {
		t.Fatal("series types lost")
	}

	// Overflow: capacity 3, four samples — oldest dropped, order kept.
	queries = 45
	h.Sample(4e9)
	queries = 50
	h.Sample(5e9)
	snap := h.Snapshot(0)
	if len(snap) != 3 || snap[0].UnixNano != 3e9 || snap[2].UnixNano != 5e9 {
		t.Fatalf("snapshot after overflow: %+v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Values["q_total"] < snap[i-1].Values["q_total"] {
			t.Fatal("counter went backwards across samples")
		}
	}

	// A counter reset clamps the rate at zero instead of going negative.
	queries = 7
	h.Sample(6e9)
	if got := h.Rates()["q_total"]; got != 0 {
		t.Fatalf("post-reset rate %g, want 0", got)
	}
}

// TestHistorySampleRegistryHistograms pins the histogram expansion in
// Registry.Sample: one _count and one _sum point, both counters.
func TestHistorySampleRegistryHistograms(t *testing.T) {
	reg := NewRegistry()
	hist := reg.NewHistogram("lat_seconds", "l", []float64{1, 2})
	hist.Observe(0.5)
	hist.Observe(10)
	pts := map[string]SamplePoint{}
	for _, p := range reg.Sample() {
		pts[p.Name] = p
	}
	if p := pts["lat_seconds_count"]; p.Type != "counter" || p.Value != 2 {
		t.Fatalf("count point: %+v", p)
	}
	if p := pts["lat_seconds_sum"]; p.Type != "counter" || p.Value != 10.5 {
		t.Fatalf("sum point: %+v", p)
	}
}

// TestHistoryStartStop exercises the cadence goroutine: samples accumulate
// and Stop joins cleanly (twice).
func TestHistoryStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("x_total", "", "x", func() int64 { return time.Now().UnixNano() })
	h := NewHistory(reg, 8)
	h.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for h.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.Len() < 3 {
		t.Fatalf("only %d samples after 2s at 1ms cadence", h.Len())
	}
	h.Stop()
	h.Stop() // idempotent
	n := h.Len()
	time.Sleep(5 * time.Millisecond)
	if h.Len() != n {
		t.Fatal("samples kept accumulating after Stop")
	}

	// Stop without Start must not hang.
	NewHistory(reg, 2).Stop()
}
