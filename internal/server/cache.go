package server

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/ssb"
)

// lru is a mutex-guarded LRU map with hit/miss counters. The server keeps
// two: the plan cache (request text -> planEntry) and the result cache.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int                 // immutable after newLRU
	ll    *list.List          // guarded by mu; front = most recently used
	items map[K]*list.Element // guarded by mu

	hits, misses int64 // guarded by mu
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns a cache holding at most cap entries; cap <= 0 disables it
// (every lookup misses, stores are dropped).
func newLRU[K comparable, V any](cap int) *lru[K, V] {
	return &lru[K, V]{cap: cap, ll: list.New(), items: map[K]*list.Element{}}
}

// enabled reports whether the cache stores anything.
func (c *lru[K, V]) enabled() bool { return c.cap > 0 }

// get returns the value cached under key, promoting it to most recent.
func (c *lru[K, V]) get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return v, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return v, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores val unless key is already present, evicting the least
// recently used entry past cap.
func (c *lru[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[K, V]{key, val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[K, V]).key)
	}
}

// counters returns hit/miss totals and the current entry count.
func (c *lru[K, V]) counters() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// resultKey identifies one answer: the plan's normalized SQL (Query.SQL is
// deterministic for equivalent plans) and the data epoch the lookup saw. The
// engine configuration is constant per Server and not part of it. Every
// accepted insert or delete bumps the epoch, so entries computed before a
// write stop being addressable and age out of the LRU; on a frozen store the
// epoch stays zero and entries live until evicted.
type resultKey struct {
	sql   string
	epoch int64
}

// cacheEntry is one answer: the result, the stats of the run that produced
// it (a hit reports that run's cost) and, when the result cache is on, the
// rendered `"sql":…,"rows":[…]` response fragment. All three are shared
// between responses and read-only.
type cacheEntry struct {
	res   *ssb.Result
	stats core.RunStats
	frag  []byte
}

// planEntry is one resolved /query request text. Plans and their text do
// not depend on data, so entries outlive epoch bumps.
type planEntry struct {
	q        *ssb.Query
	sql      string // q.SQL(), rendered once
	trace    bool
	selector string // what the access log prints for the request
}

// planKey is the raw request selector: a GET's URL.RawQuery or a POST's
// body. The method is part of the key because the two are parsed differently.
type planKey struct {
	post bool
	text string
}

const (
	// planCacheEntries is the plan cache's fixed capacity.
	planCacheEntries = 1024
	// maxPlanKeyBytes is the longest selector the plan cache retains, which
	// bounds its memory at planCacheEntries × this (plus the parsed plans).
	maxPlanKeyBytes = 64 << 10
)
