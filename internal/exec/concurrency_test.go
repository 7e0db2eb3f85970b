package exec

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/ssb"
)

// leakCheckConfigs are the column configurations the pin-leak audit runs:
// every block-acquiring pipeline the engine has that can serve compressed
// (segment-backed) storage — per-probe, tuple-at-a-time iteration, the
// fused morsel pipeline serial and parallel, and early materialization.
func leakCheckConfigs() []Config {
	fused1, fused8 := FusedOpt, FusedOpt
	fused1.Workers, fused8.Workers = 1, 8
	return []Config{
		FullOpt,
		{BlockIter: false, InvisibleJoin: true, Compression: true, LateMat: true},
		fused1,
		fused8,
		{BlockIter: true, InvisibleJoin: true, Compression: true, LateMat: false},
	}
}

// TestPinLeakAllEngines runs every engine's full query suite (the thirteen
// SSBM queries, the two wide-group plans and a band of random ad-hoc plans)
// over a segment-backed DB under an eviction-forcing budget and asserts the
// pool reports zero pinned frames after every single run: each pipeline
// releases every block it acquires on every path, including min/max
// short-circuits, empty selections, and covered-block skips.
func TestPinLeakAllEngines(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	segDB, store := segBackedDB(t, dbc, data.SF, 256<<10)

	plans := append(ssb.Queries(), wideGroupPlans()...)
	for i := 0; i < 20; i++ {
		plans = append(plans, ssb.RandQuery(diffSeedBase+int64(i)))
	}
	for _, cfg := range leakCheckConfigs() {
		for _, q := range plans {
			segDB.Run(q, cfg, nil)
			if n := store.Pool().PinnedFrames(); n != 0 {
				t.Fatalf("config %s workers=%d query %s: %d frames still pinned after run",
					cfg.Code(), cfg.Workers, q.ID, n)
			}
		}
	}
}

// TestCancellationReleasesPins cancels queries before and during execution
// and asserts (a) RunCtx surfaces ctx.Err, (b) the pool holds zero pinned
// frames afterwards, and (c) a query that happens to win the race and
// complete anyway is still bit-identical to the reference.
func TestCancellationReleasesPins(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	segDB, store := segBackedDB(t, dbc, data.SF, 256<<10)

	for _, cfg := range leakCheckConfigs() {
		// Already-canceled context: every pipeline must bail without a
		// result.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, q := range ssb.Queries() {
			if res, err := segDB.RunCtx(ctx, q, cfg, nil); err == nil {
				t.Fatalf("config %s query %s: no error from pre-canceled context (res=%v)", cfg.Code(), q.ID, res != nil)
			}
			if n := store.Pool().PinnedFrames(); n != 0 {
				t.Fatalf("config %s query %s: %d pinned frames after canceled run", cfg.Code(), q.ID, n)
			}
		}
	}

	// Mid-flight cancellation: race a cancel against real execution. Either
	// outcome is legal; pinned frames and result integrity are not
	// negotiable.
	q := ssb.QueryByID("3.1")
	want := ssb.Reference(data, q)
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			cancel()
		}()
		res, err := segDB.RunCtx(ctx, q, FusedOpt, nil)
		<-done
		if err == nil && !res.Equal(want) {
			t.Fatalf("iteration %d: uncanceled run diverges from reference:\n%s", i, want.Diff(res))
		}
		if err != nil && res != nil {
			t.Fatalf("iteration %d: canceled run returned both a result and %v", i, err)
		}
		if n := store.Pool().PinnedFrames(); n != 0 {
			t.Fatalf("iteration %d: %d pinned frames after cancellation race", i, n)
		}
	}
}

// TestConcurrentRunGoldenEquivalence executes the same query suite from
// two goroutines sharing one DB (in-memory and segment-backed), each call
// owning its iosim.Stats, and requires every result and every per-query
// I/O account to be bit-identical to a serial baseline: concurrent db.Run
// calls share scratch pools and the buffer pool but never interleave
// per-query state. Run under -race in CI.
func TestConcurrentRunGoldenEquivalence(t *testing.T) {
	data := ssb.Generate(0.01)
	dbc := BuildDB(data, true)
	segDB, store := segBackedDB(t, dbc, data.SF, 256<<10)

	cfg := FusedOpt
	cfg.Workers = 4

	plans := ssb.Queries()
	for i := 0; i < 12; i++ {
		plans = append(plans, ssb.RandQuery(diffSeedBase+100+int64(i)))
	}

	for _, db := range []*DB{dbc, segDB} {
		// Serial baseline: result + logical I/O per plan.
		baseRes := make([]*ssb.Result, len(plans))
		baseIO := make([]iosim.Stats, len(plans))
		for i, q := range plans {
			baseRes[i] = db.Run(q, cfg, &baseIO[i])
		}

		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Opposite orders maximize distinct-query interleaving.
				for i := range plans {
					pi := i
					if g == 1 {
						pi = len(plans) - 1 - i
					}
					q := plans[pi]
					var st iosim.Stats
					res := db.Run(q, cfg, &st)
					if !res.Equal(baseRes[pi]) {
						t.Errorf("goroutine %d plan %s: concurrent result diverges from serial\n%s",
							g, q.ID, baseRes[pi].Diff(res))
						return
					}
					if st != baseIO[pi] {
						t.Errorf("goroutine %d plan %s: concurrent I/O %+v differs from serial %+v",
							g, q.ID, st, baseIO[pi])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := store.Pool().PinnedFrames(); n != 0 {
			t.Fatalf("%d pinned frames after concurrent runs", n)
		}
	}
}
