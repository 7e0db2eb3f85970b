package segstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/compress"
)

// testFetcher serves synthetic 100-byte plain segments and counts fetches.
type testFetcher struct {
	mu      sync.Mutex
	fetches map[SegKey]int
	fail    map[SegKey]bool
}

func newTestFetcher() *testFetcher {
	return &testFetcher{fetches: map[SegKey]int{}, fail: map[SegKey]bool{}}
}

func (f *testFetcher) fetch(k SegKey) (compress.IntBlock, int64, []byte, error) {
	f.mu.Lock()
	f.fetches[k]++
	failing := f.fail[k]
	f.mu.Unlock()
	if failing {
		return nil, 0, nil, fmt.Errorf("synthetic read error for %v", k)
	}
	vals := make([]int32, 25) // 100 bytes plain
	for i := range vals {
		vals[i] = k.Col*1000 + k.Seg
	}
	return compress.NewPlainBlock(vals), 100, nil, nil
}

// TestPoolHitMiss verifies hit/miss accounting and that a resident segment
// is served without refetching.
func TestPoolHitMiss(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(0, f.fetch)
	for i := 0; i < 3; i++ {
		blk, release, err := p.Acquire(SegKey{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if blk.Get(0) != 1002 {
			t.Fatalf("wrong block content %d", blk.Get(0))
		}
		release()
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.BytesRead != 100 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits / 100 bytes", st)
	}
}

// TestPoolBudgetEviction acquires more segments than the budget holds and
// checks the sweep keeps residency at or under budget, with evictions
// recorded and the first-touch victim re-acquired by refetching.
func TestPoolBudgetEviction(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(250, f.fetch) // room for 2 of the 100-byte segments
	for seg := int32(0); seg < 5; seg++ {
		_, release, err := p.Acquire(SegKey{0, seg})
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := p.Stats()
	if st.Resident > 250 {
		t.Fatalf("resident %d exceeds budget with nothing pinned", st.Resident)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 2-segment budget after 5 distinct segments")
	}
	if st.Misses != 5 {
		t.Fatalf("misses = %d want 5", st.Misses)
	}
	resident := func() []int32 {
		p.mu.Lock()
		defer p.mu.Unlock()
		var segs []int32
		for k := range p.frames {
			segs = append(segs, k.Seg)
		}
		slices.Sort(segs)
		return segs
	}
	// Each of segs 2..4 evicted the newest unpinned frame, its predecessor,
	// so seg 0 has stayed resident.
	if got := resident(); !slices.Equal(got, []int32{0, 4}) {
		t.Fatalf("resident segs %v, want [0 4]", got)
	}
	// Refetching seg 3 brings the bytes loaded since seg 0 arrived, unread,
	// to twice the budget: the aging hand evicts seg 0.
	if _, release, err := p.Acquire(SegKey{0, 3}); err != nil {
		t.Fatal(err)
	} else {
		release()
	}
	f.mu.Lock()
	n3 := f.fetches[SegKey{0, 3}]
	f.mu.Unlock()
	if n3 != 2 {
		t.Fatalf("seg 3 fetched %d times, want 2 (evicted then refetched)", n3)
	}
	if got := resident(); !slices.Equal(got, []int32{3, 4}) {
		t.Fatalf("resident segs %v, want [3 4] (seg 0 aged out)", got)
	}
}

// TestPoolWorkingSetShift fills the pool with segments read twice and then
// never again, then loops over a smaller set that fits beside a frame every
// access hits.
// The stale frames must age out so that the new set becomes resident within
// a few passes; without the aging hand each miss of the new set would evict
// its own predecessor and every pass would miss throughout.
func TestPoolWorkingSetShift(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(20*100, f.fetch)
	touch := func(k SegKey) {
		_, release, err := p.Acquire(k)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	hot := SegKey{2, 0}
	touch(hot)
	// The old working set, read twice: its frames have been hit, so the
	// aging hand passes over them until they go stale, and has to come
	// back to them from the newest end of the ring.
	for range 2 {
		for seg := int32(0); seg < 19; seg++ {
			touch(SegKey{0, seg})
		}
	}
	// The old set goes stale once twice the budget, 40 segments, has been
	// loaded since it was last read: at the end of the new set's fourth
	// pass. After that it is evicted a frame per miss.
	const learn, passes = 6, 8
	var learned PoolStats
	for pass := 0; pass < passes; pass++ {
		if pass == learn {
			learned = p.Stats()
		}
		for seg := int32(0); seg < 10; seg++ {
			touch(hot)
			touch(SegKey{1, seg})
		}
	}
	if st := p.Stats(); st.Misses != learned.Misses {
		t.Errorf("%d misses after pass %d, want 0: the new set never became resident", st.Misses-learned.Misses, learn)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.fetches[hot]; n != 1 {
		t.Errorf("hot frame fetched %d times, want 1", n)
	}
	if st := p.Stats(); st.Resident > 20*100 {
		t.Errorf("resident %d over budget with nothing pinned", st.Resident)
	}
}

// scanHitRatio drives p with the access shape of the fused scan over a
// pool half the working set's size: queries that each read a column of
// their own and a shared one, block by block, every morsel pinning both
// blocks. The own column is a foreign key, touched twice per morsel (probe,
// then group-by key); the shared one is the aggregate input, touched once.
// It returns the hit ratio over all passes after the first.
func scanHitRatio(t *testing.T, p *Pool) float64 {
	t.Helper()
	const blocks, passes = 10, 8
	acquire := func(k SegKey) func() {
		_, release, err := p.Acquire(k)
		if err != nil {
			t.Fatal(err)
		}
		return release
	}
	var warm PoolStats
	for pass := 0; pass < passes; pass++ {
		if pass == 1 {
			warm = p.Stats()
		}
		for own := int32(1); own <= 3; own++ {
			for b := int32(0); b < blocks; b++ {
				r1 := acquire(SegKey{own, b})
				r2 := acquire(SegKey{0, b})
				acquire(SegKey{own, b})()
				r2()
				r1()
			}
		}
	}
	st := p.Stats()
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	return float64(hits) / float64(hits+misses)
}

// TestPoolScanResistant replays that cyclic scan — 40 distinct segments
// through a 20-segment budget — and holds the hit ratio to a floor a
// recency-ordered pool cannot reach. Under clock, each foreign-key block
// sets its own reference bit by its re-touch and outlives the shared block
// beside it, every pass flushes what the next query reads, and only the
// re-touches hit (0.33). With first-touch frames leaving first, the shared
// column earns its bit from the next query and stays, with most of one
// foreign key (0.73).
func TestPoolScanResistant(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(20*100, f.fetch)
	if got := scanHitRatio(t, p); got < 0.6 {
		t.Fatalf("cyclic scan hit ratio %.3f, want >= 0.6", got)
	}
	if st := p.Stats(); st.Resident > 20*100 {
		t.Fatalf("resident %d over budget with nothing pinned", st.Resident)
	}
	// Unbounded, every segment misses once and nothing is evicted.
	u := NewPool(0, newTestFetcher().fetch)
	if got := scanHitRatio(t, u); got != 1 {
		t.Fatalf("unbounded pool hit ratio %.3f after warm-up, want 1", got)
	}
}

// TestPoolCorrelatedRetouch: a hit sets the reference bit only once
// budget/16 bytes have been loaded since the frame arrived, so a block
// re-read within its own morsel stays the first eviction candidate.
func TestPoolCorrelatedRetouch(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(3200, f.fetch) // budget/16 = 200 bytes: two fetches
	touch := func(k SegKey) {
		_, release, err := p.Acquire(k)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	ref := func(k SegKey) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.frames[k].ref
	}
	k := SegKey{0, 0}
	touch(k)
	touch(SegKey{0, 1}) // 100 bytes since k arrived: still correlated
	touch(k)
	if ref(k) {
		t.Fatal("a re-touch 100 bytes after arrival set the reference bit")
	}
	touch(SegKey{0, 2}) // 200 bytes since k arrived
	touch(k)
	if !ref(k) {
		t.Fatal("a re-touch 200 bytes after arrival did not set the reference bit")
	}
}

// TestPoolPinnedNotEvicted pins segments past the budget: residency may
// overshoot, but no pinned frame may be dropped.
func TestPoolPinnedNotEvicted(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(150, f.fetch)
	var releases []func()
	var blks []compress.IntBlock
	for seg := int32(0); seg < 4; seg++ {
		blk, release, err := p.Acquire(SegKey{0, seg})
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
		releases = append(releases, release)
	}
	st := p.Stats()
	if st.Evictions != 0 {
		t.Fatalf("evicted %d pinned frames", st.Evictions)
	}
	if st.Resident != 400 {
		t.Fatalf("resident = %d want 400 (all pinned, over budget)", st.Resident)
	}
	for seg, blk := range blks {
		if blk.Get(0) != int32(seg) {
			t.Fatalf("pinned block %d corrupted", seg)
		}
	}
	for _, r := range releases {
		r()
	}
	// Next acquire triggers eviction back under budget.
	_, release, err := p.Acquire(SegKey{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := p.Stats(); st.Resident > 150 {
		t.Fatalf("resident %d after unpinning exceeds budget", st.Resident)
	}
}

// TestPoolFetchError propagates errors, leaves no residue, and allows
// retry.
func TestPoolFetchError(t *testing.T) {
	f := newTestFetcher()
	k := SegKey{3, 4}
	f.fail[k] = true
	p := NewPool(0, f.fetch)
	if _, _, err := p.Acquire(k); err == nil {
		t.Fatal("fetch error not propagated")
	}
	f.mu.Lock()
	f.fail[k] = false
	f.mu.Unlock()
	blk, release, err := p.Acquire(k)
	if err != nil {
		t.Fatalf("retry after failed fetch: %v", err)
	}
	if blk.Get(0) != 3004 {
		t.Fatal("retry returned wrong block")
	}
	release()
	if st := p.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d want 2 (failed + retry)", st.Misses)
	}
}

// TestPoolConcurrent hammers the pool from many goroutines under a tight
// budget; run with -race. Every acquire must observe its own segment's
// values.
func TestPoolConcurrent(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(500, f.fetch)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := SegKey{Col: int32(i % 3), Seg: int32((i * 7) % 11)}
				blk, release, err := p.Acquire(k)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := blk.Get(0); got != k.Col*1000+k.Seg {
					t.Errorf("goroutine %d: block %v holds %d", g, k, got)
					release()
					return
				}
				release()
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*300 {
		t.Fatalf("hits+misses = %d want %d", st.Hits+st.Misses, 8*300)
	}
	if st.Resident > 500 {
		t.Fatalf("resident %d over budget after all releases", st.Resident)
	}
}

// TestPoolAcquireResetStatsRace hammers Acquire, Reset and Stats from many
// goroutines at once under a budget tight enough to keep the clock hand
// moving; run with -race. It pins the invariants concurrency must not bend:
// every acquire observes its own segment's values, every Stats snapshot is
// internally consistent (bytes read implies at least one miss in the same
// epoch), and after the storm quiesces nothing is pinned and one final
// Reset leaves residency at exactly zero.
func TestPoolAcquireResetStatsRace(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(400, f.fetch)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := SegKey{Col: int32((g + i) % 4), Seg: int32((i * 13) % 9)}
				blk, release, err := p.Acquire(k)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := blk.Get(0); got != k.Col*1000+k.Seg {
					t.Errorf("goroutine %d: block %v holds %d", g, k, got)
				}
				release()
			}
		}(g)
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Reset()
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := p.Stats()
				if st.BytesRead > 0 && st.Misses == 0 {
					t.Error("stats epoch split: bytes read with zero misses")
					return
				}
				if st.Resident < 0 {
					t.Errorf("negative residency %d", st.Resident)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	bg.Wait()
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after all acquirers released", n)
	}
	p.Reset()
	if st := p.Stats(); st.Resident != 0 {
		t.Fatalf("resident %d after final reset with nothing pinned", st.Resident)
	}
}

// TestPoolReset drops unpinned frames and zeroes counters.
func TestPoolReset(t *testing.T) {
	f := newTestFetcher()
	p := NewPool(0, f.fetch)
	for seg := int32(0); seg < 3; seg++ {
		_, release, _ := p.Acquire(SegKey{0, seg})
		release()
	}
	p.Reset()
	if st := p.Stats(); st.Resident != 0 || st.Misses != 0 {
		t.Fatalf("after reset: %+v", st)
	}
	_, release, err := p.Acquire(SegKey{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := p.Stats(); st.Misses != 1 {
		t.Fatalf("post-reset acquire was not a cold miss: %+v", st)
	}
}
