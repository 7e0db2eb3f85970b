//go:build !race

package server

import (
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/ssb"
)

// TestHandlerHitAllocs is the deterministic gate on the hit path: a warmed
// request through Handler() — the *http.Request included — allocates at most
// 12 times, by id and as POSTed ad-hoc SQL (the handler alone took 312
// before the plan cache and the pre-rendered fragment). Not built under
// -race, where sync.Pool drops entries at random.
func TestHandlerHitAllocs(t *testing.T) {
	srv, err := New(core.OpenData(ssb.Generate(0.01)), Options{HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	w := &discard{h: http.Header{}}
	for _, c := range []struct{ name, target, body string }{
		{"id", "/query?id=3.1", ""},
		{"sql", "/query", sqlBody(t, ssb.RandQuery(1).SQL(), false)},
	} {
		if h.ServeHTTP(w, hitRequest(c.target, c.body)); w.status != 0 {
			t.Fatalf("%s: warm-up status %d", c.name, w.status)
		}
		allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, hitRequest(c.target, c.body)) })
		if hits, misses, _ := srv.cache.counters(); misses > 2 || hits < 200 {
			t.Fatalf("%s: %d hits %d misses: the measured requests were not hits", c.name, hits, misses)
		}
		t.Logf("%s: %.0f allocs per warmed hit", c.name, allocs)
		if allocs > 12 {
			t.Errorf("%s: %.0f allocs per warmed hit, want <= 12", c.name, allocs)
		}
	}
}
