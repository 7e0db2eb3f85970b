package exec

import (
	"fmt"
	"testing"

	"repro/internal/ssb"
)

// TestEstimateFootprintBounds pins the admission estimate as a provable
// upper bound: the estimate for the fused engine at a configuration's
// worker count must be at least the peak bytes the query actually held
// resident in the buffer pool. The pool runs with the smallest budget the
// store accepts (256 KB here, just over the largest single segment) so
// unpinned frames evict aggressively — its Peak high-water mark then tracks
// the maximum concurrently pinned payload plus at most one budget's worth of
// cached frames, which is exactly the shared-resource pressure the estimate
// exists to bound. Scratch (selection bitmaps, gather buffers, dense
// aggregation arrays) is charged by the estimate on top, so the inequality
// has real slack by construction; what this test refutes is an estimate
// recalibrated below the pinned working set. The server runs only the fused
// engine; the per-probe and early-mat rows also pin one block per column at
// a time, and every row checks that its run leaves no frame pinned.
func TestEstimateFootprintBounds(t *testing.T) {
	data := ssb.Generate(0.01)
	mem := BuildDB(data, true)
	segDB, store := segBackedDB(t, mem, data.SF, 256<<10)

	w8, nkFull, nkW8 := FusedOpt, FullOpt, FusedOpt
	w8.Workers = 8
	nkFull.NoKernels = true
	nkW8.Workers, nkW8.NoKernels = 8, true
	configs := []struct {
		label string
		cfg   Config
	}{
		{"per-probe", FullOpt},
		{"per-probe kernels-off", nkFull},
		{"fused w1", FusedOpt},
		{"fused w8", w8},
		{"fused w8 kernels-off", nkW8},
		{"early-mat", earlyMatCfg},
	}

	queries := []*ssb.Query{
		ssb.QueryByID("1.1"), // ungrouped, fact measure filters (kernel fold)
		ssb.QueryByID("2.1"), // grouped, two dimension joins
		ssb.QueryByID("3.1"), // grouped, three dimension joins
		ssb.QueryByID("4.1"), // grouped, SUM of a two-operand expression
		{ID: "count-only", Aggs: []ssb.AggSpec{{Func: ssb.FuncCount}}},
	}
	for i := 0; i < 8; i++ {
		queries = append(queries, ssb.RandQuery(diffSeedBase+1000+int64(i)))
	}

	// Hash aggregation and the one-worker band.
	queries = append(queries, wideGroupPlans()...)

	for _, q := range queries {
		for _, c := range configs {
			t.Run(fmt.Sprintf("%s/%s", q.ID, c.label), func(t *testing.T) {
				store.Pool().Reset()
				est := segDB.EstimateFootprint(q, c.cfg.Workers)
				segDB.Run(q, c.cfg, nil)
				ps := store.Pool().Stats()
				if est < ps.Peak {
					t.Errorf("estimate %d < observed peak resident %d (pinned working set)\nSQL: %s",
						est, ps.Peak, q.SQL())
				}
				if n := store.Pool().PinnedFrames(); n != 0 {
					t.Errorf("query left %d frames pinned", n)
				}
			})
		}
	}
}
