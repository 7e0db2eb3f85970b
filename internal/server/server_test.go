package server

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// stressSeedBase pins the stress suite's plan space; a failure reproduces
// with ssb-query -fuzz-seed <seed> -verify.
const stressSeedBase int64 = 2026_0728_4000

// openSegServer generates SF=0.01 data, round-trips it through a segment
// file opened under budget, and returns both the serving layer and the raw
// dataset for reference execution.
func openSegServer(t *testing.T, budget int64, opts Options) (*Server, *ssb.Data, *core.DB) {
	t.Helper()
	return openSegServerSF(t, 0.01, budget, opts)
}

// openSegServerSF is openSegServer at a chosen scale factor.
func openSegServerSF(t testing.TB, sf float64, budget int64, opts Options) (*Server, *ssb.Data, *core.DB) {
	t.Helper()
	data := ssb.Generate(sf)
	memDB := core.OpenData(data)
	path := filepath.Join(t.TempDir(), "serve.seg")
	if err := exec.SaveSegments(path, data.SF, memDB.ColumnDB(true)); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}
	segDB, err := core.OpenSegmentStore(path, budget)
	if err != nil {
		t.Fatalf("OpenSegmentStore: %v", err)
	}
	t.Cleanup(func() { segDB.SegmentStore().Close() })
	srv, err := New(segDB, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, data, segDB
}

// TestServeStressRace is the acceptance stress: 16 concurrent clients each
// execute 200 seeded random plans (shuffled per client) against one shared
// segment-backed DB whose 256KB pool budget forces continuous eviction
// churn, and every result must be bit-identical to the brute-force
// reference. The cache is disabled so all 3200 executions hit the engine.
// At shutdown: zero pinned frames and zero leaked goroutines. Run with
// -race in CI.
func TestServeStressRace(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const clients = 16
	const plansPerClient = 200

	srv, data, segDB := openSegServer(t, 256<<10, Options{
		Workers:      4,
		CacheEntries: -1,       // every execution must hit the engine
		AdmitBytes:   64 << 20, // generous: real overlap, pool thrash allowed
	})

	plans := make([]*ssb.Query, plansPerClient)
	want := make([]*ssb.Result, plansPerClient)
	for i := range plans {
		plans[i] = ssb.RandQuery(stressSeedBase + int64(i))
		want[i] = ssb.Reference(data, plans[i])
	}

	// A poller hammers every observability read endpoint over HTTP while
	// the clients run, so /debug/queries, /debug/summary, /metrics/history
	// and the recorder behind them are race-exercised against live traffic.
	ts := httptest.NewServer(srv.Handler())
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		paths := []string{
			"/debug/queries?n=25", "/debug/summary?window=5",
			"/metrics/history?sample=1", "/stats", "/metrics",
		}
		for i := 0; ; i++ {
			select {
			case <-pollStop:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + paths[i%len(paths)])
			if err != nil {
				t.Errorf("poller: %v", err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("poller: %s status %d", paths[i%len(paths)], resp.StatusCode)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(c))).Perm(plansPerClient)
			for _, pi := range order {
				resp, err := srv.Execute(context.Background(), plans[pi])
				if err != nil {
					t.Errorf("client %d seed %d: %v", c, stressSeedBase+int64(pi), err)
					return
				}
				if resp.Cached {
					t.Errorf("client %d: cache hit with caching disabled", c)
					return
				}
				if !resp.Result.Equal(want[pi]) {
					t.Errorf("client %d seed %d: result diverges from reference\nSQL: %s\n%s",
						c, stressSeedBase+int64(pi), plans[pi].SQL(), want[pi].Diff(resp.Result))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(pollStop)
	<-pollDone
	ts.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := srv.Recorder().Len(); n == 0 || n > srv.Recorder().Cap() {
		t.Fatalf("recorder len %d (cap %d) after stress", n, srv.Recorder().Cap())
	}
	if n := segDB.SegmentStore().Pool().PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned at shutdown", n)
	}
	st := readStats(t, srv).Server
	if st.Queries != clients*plansPerClient {
		t.Fatalf("served %d queries, want %d", st.Queries, clients*plansPerClient)
	}
	if st.Errors != 0 || st.InFlight != 0 {
		t.Fatalf("errors=%d in-flight=%d at shutdown", st.Errors, st.InFlight)
	}

	// Zero leaked goroutines: executor workers all join before Execute
	// returns, so the count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d at shutdown vs %d at start", n, baseline)
	}
}

// TestServingPathIsFused is the fence between the serving path and the
// ablation engines: whatever plan a client sends — the thirteen queries,
// 200 random ad-hoc plans, and two groupings whose composite group space is
// past the dense-array limit at this scale factor (internal/exec's
// TestFusedHashShape pins that at the same SF) — the one engine that runs it
// is the fused scan, the answer is the reference's, and nothing stays
// pinned. No Options field could say otherwise; this pins that no plan
// shape does either.
func TestServingPathIsFused(t *testing.T) {
	srv, data, segDB := openSegServerSF(t, 0.02, 256<<10, Options{Workers: 4, CacheEntries: -1})
	defer srv.Close()

	plans := append(ssb.Queries(),
		&ssb.Query{ID: "wide-names", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "name"}, {Dim: ssb.DimPart, Col: "name"}, {Dim: ssb.DimDate, Col: "date"}}},
		&ssb.Query{ID: "wide-cities", Aggs: []ssb.AggSpec{{Func: ssb.FuncSum, Expr: ssb.AggExpr{ColA: "revenue"}}}, GroupBy: []ssb.GroupCol{
			{Dim: ssb.DimCustomer, Col: "city"}, {Dim: ssb.DimSupplier, Col: "city"}, {Dim: ssb.DimPart, Col: "brand1"}}})
	for i := int64(0); i < 200; i++ {
		plans = append(plans, ssb.RandQuery(stressSeedBase+i))
	}
	for _, q := range plans {
		tr := &obs.Trace{}
		resp, err := srv.Execute(obs.WithTrace(context.Background(), tr), q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if tr.Engine != "fused" || tr.Workers < 1 {
			t.Errorf("%s ran on engine %q with %d workers, want the fused scan\nSQL: %s", q.ID, tr.Engine, tr.Workers, q.SQL())
		}
		if want := ssb.Reference(data, q); !resp.Result.Equal(want) {
			t.Errorf("%s diverges from reference\nSQL: %s\n%s", q.ID, q.SQL(), want.Diff(resp.Result))
		}
		if n := segDB.SegmentStore().Pool().PinnedFrames(); n != 0 {
			t.Fatalf("%s left %d frames pinned", q.ID, n)
		}
	}
}

// TestServeGoldenConcurrent runs the thirteen fixed queries from many
// clients with the cache on: responses must stay bit-identical to the
// reference whether they were computed or served from cache, and the cache
// must absorb the repeats.
func TestServeGoldenConcurrent(t *testing.T) {
	srv, data, _ := openSegServer(t, 1<<20, Options{Workers: 2})
	defer srv.Close()

	queries := ssb.Queries()
	want := make(map[string]*ssb.Result, len(queries))
	for _, q := range queries {
		want[q.ID] = ssb.Reference(data, q)
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for _, q := range queries {
					resp, err := srv.Execute(context.Background(), q)
					if err != nil {
						t.Errorf("client %d Q%s: %v", c, q.ID, err)
						return
					}
					if !resp.Result.Equal(want[q.ID]) {
						t.Errorf("client %d Q%s (cached=%v): diverges\n%s",
							c, q.ID, resp.Cached, want[q.ID].Diff(resp.Result))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	st := readStats(t, srv).Server
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across 8 clients x 4 repetitions of 13 queries")
	}
	if st.CacheMisses < int64(len(queries)) {
		t.Fatalf("cache misses %d below the %d distinct queries", st.CacheMisses, len(queries))
	}
}

// TestExecuteCancellation covers both abandonment points: a context
// canceled while the query is queued for admission, and one canceled
// before execution begins.
func TestExecuteCancellation(t *testing.T) {
	srv, _, segDB := openSegServer(t, 256<<10, Options{CacheEntries: -1})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Execute(ctx, ssb.QueryByID("1.1")); err == nil {
		t.Fatal("no error from pre-canceled context")
	}
	if n := segDB.SegmentStore().Pool().PinnedFrames(); n != 0 {
		t.Fatalf("%d pinned frames after canceled execute", n)
	}
	// The server keeps serving after cancellations.
	if _, err := srv.Execute(context.Background(), ssb.QueryByID("1.1")); err != nil {
		t.Fatalf("execute after cancellation: %v", err)
	}
	st := readStats(t, srv).Server
	if st.Errors != 1 {
		t.Fatalf("errors = %d want 1", st.Errors)
	}
}

// TestCloseRejects pins shutdown semantics: Execute after Close fails with
// ErrClosed and Close is idempotent.
func TestCloseRejects(t *testing.T) {
	srv, _, _ := openSegServer(t, 0, Options{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Execute(context.Background(), ssb.QueryByID("1.1")); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestByteSemFIFO pins the admission semaphore: grants are FIFO, a waiter
// canceled while queued is skipped, and oversized requests clamp to the
// capacity instead of deadlocking.
func TestByteSemFIFO(t *testing.T) {
	s := newByteSem(100)

	// Oversized acquire clamps and runs alone.
	granted, err := s.acquire(context.Background(), 1000)
	if err != nil || granted != 100 {
		t.Fatalf("oversized acquire: granted=%d err=%v", granted, err)
	}

	// Two waiters queue behind the full semaphore in order.
	type result struct {
		id      int
		granted int64
	}
	results := make(chan result, 2)
	started := make(chan struct{}, 2)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	go func() {
		started <- struct{}{}
		g, err := s.acquire(context.Background(), 60)
		if err != nil {
			t.Errorf("waiter A: %v", err)
		}
		results <- result{1, g}
	}()
	<-started
	waitForWaiters(t, s, 1)
	go func() {
		started <- struct{}{}
		g, err := s.acquire(ctxB, 60)
		if err != nil {
			t.Errorf("waiter B: %v", err)
		}
		results <- result{2, g}
	}()
	<-started
	waitForWaiters(t, s, 2)

	// Releasing the head grant admits A (FIFO); B still blocks because
	// 60+60 > 100.
	s.release(granted)
	first := <-results
	if first.id != 1 {
		t.Fatalf("grant order violated: waiter %d admitted first", first.id)
	}
	select {
	case r := <-results:
		t.Fatalf("waiter %d admitted while semaphore full", r.id)
	case <-time.After(20 * time.Millisecond):
	}
	s.release(first.granted)
	second := <-results
	if second.id != 2 {
		t.Fatalf("waiter %d finished second, want 2", second.id)
	}
	s.release(second.granted)

	// A canceled waiter leaves the queue and later grants skip it.
	g, err := s.acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ctxC, cancelC := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.acquire(ctxC, 10)
		errCh <- err
	}()
	waitForWaiters(t, s, 1)
	cancelC()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("canceled waiter returned %v", err)
	}
	s.release(g)
	if g, err := s.acquire(context.Background(), 100); err != nil || g != 100 {
		t.Fatalf("semaphore unusable after canceled waiter: granted=%d err=%v", g, err)
	}
	s.release(100)

	// Canceling a heavy head must immediately admit a lighter waiter
	// behind it that already fits — not leave it stalled until the next
	// unrelated release.
	gHold, err := s.acquire(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	ctxH, cancelH := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, err := s.acquire(ctxH, 80)
		headErr <- err
	}()
	waitForWaiters(t, s, 1)
	lightGrant := make(chan int64, 1)
	go func() {
		g, err := s.acquire(context.Background(), 20)
		if err != nil {
			t.Errorf("light waiter: %v", err)
		}
		lightGrant <- g
	}()
	waitForWaiters(t, s, 2)
	cancelH()
	if err := <-headErr; err != context.Canceled {
		t.Fatalf("canceled head returned %v", err)
	}
	select {
	case g := <-lightGrant:
		s.release(g)
	case <-time.After(2 * time.Second):
		t.Fatal("light waiter stalled behind a canceled head")
	}
	s.release(gHold)
}

// waitForWaiters spins until the semaphore queue holds n entries.
func waitForWaiters(t *testing.T, s *byteSem, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.waiters)
		s.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultCacheLRU pins the cache: repeated keys hit, capacity evicts
// the least recently used entry, and disabled caches never hit.
func TestResultCacheLRU(t *testing.T) {
	c := newLRU[resultKey, *cacheEntry](2)
	key := func(k string) resultKey { return resultKey{sql: k} }
	e := &cacheEntry{res: ssb.NewResult("x", nil)}
	c.put(key("a"), e)
	c.put(key("b"), e)
	if _, ok := c.get(key("a")); !ok {
		t.Fatal("a missing")
	}
	c.put(key("c"), e) // evicts b (LRU)
	if _, ok := c.get(key("b")); ok {
		t.Fatal("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(key(k)); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if _, ok := c.get(resultKey{sql: "a", epoch: 1}); ok {
		t.Fatal("an entry answered for a newer epoch")
	}
	hits, misses, entries := c.counters()
	if hits != 3 || misses != 2 || entries != 2 {
		t.Fatalf("hits=%d misses=%d entries=%d", hits, misses, entries)
	}

	off := newLRU[resultKey, *cacheEntry](-1)
	off.put(key("a"), e)
	if _, ok := off.get(key("a")); ok {
		t.Fatal("disabled cache served a hit")
	}
}
