package exec

import (
	"context"
	"testing"

	"repro/internal/iosim"
	"repro/internal/sql"
	"repro/internal/ssb"
)

// answerSpace is the composite group space q's answer can occupy, computed
// from the raw data alone: the product, over q's group columns, of the
// distinct values the column takes on the dimension rows that satisfy every
// filter q puts on that dimension (all rows when it puts none).
func answerSpace(d *ssb.Data, q *ssb.Query) int64 {
	space := int64(1)
	for _, g := range q.GroupBy {
		col, _ := ssb.FindCol(g.Dim.Cols(), g.Col)
		distinct := map[any]bool{}
		for i := 0; i < d.DimRows(g.Dim); i++ {
			if !dimRowPasses(d, q, g.Dim, i) {
				continue
			}
			if col.IsInt() {
				distinct[d.DimInt(g.Dim, g.Col, i)] = true
			} else {
				distinct[d.DimStr(g.Dim, g.Col, i)] = true
			}
		}
		space *= int64(len(distinct))
	}
	return space
}

// dimRowPasses reports whether row i of dim satisfies every filter q puts
// on dim.
func dimRowPasses(d *ssb.Data, q *ssb.Query, dim ssb.Dim, i int) bool {
	for _, f := range q.DimFilters {
		if f.Dim != dim {
			continue
		}
		if f.IsInt {
			if !f.IntPred().Match(d.DimInt(dim, f.Col, i)) {
				return false
			}
		} else if !f.MatchStr(d.DimStr(dim, f.Col, i)) {
			return false
		}
	}
	return true
}

// groupsByFilteredDim reports whether q groups by an attribute of a
// dimension it filters.
func groupsByFilteredDim(q *ssb.Query) bool {
	for _, g := range q.GroupBy {
		for _, f := range q.DimFilters {
			if f.Dim == g.Dim {
				return true
			}
		}
	}
	return false
}

// TestGroupSpaceFromPhase1: a fused plan lays out its composite group key
// over the attribute values phase 1 admits, so its space is exactly the
// answer's, as counted by brute force over the raw data — never the
// attribute domains' product, which it is at most — and Q4.3 keeps its
// workers.
func TestGroupSpaceFromPhase1(t *testing.T) {
	data := ssb.Generate(0.01)
	db := BuildDB(data, true)
	qs := ssb.Queries()
	for seed, n := int64(0), 0; n < 200; seed++ {
		if q := ssb.RandQuery(seed); groupsByFilteredDim(q) {
			qs = append(qs, q)
			n++
		}
	}
	for _, q := range qs {
		plan := db.compile(q, FusedOpt, nil)
		if want := answerSpace(data, q); plan.total != want {
			t.Errorf("%s: plan.total = %d, want %d admitted group values\nSQL: %s", q.ID, plan.total, want, q.SQL())
		}
		if domains, _ := db.groupSpace(q); plan.total > domains {
			t.Errorf("%s: plan.total = %d exceeds the attribute domains' product %d", q.ID, plan.total, domains)
		}
	}
	q43 := ssb.QueryByID("4.3")
	plan := db.compile(q43, FusedOpt, nil)
	if got := fusedWorkersFor(8, plan.total, 8); got != 8 {
		domains, _ := db.groupSpace(q43)
		t.Errorf("Q4.3: group space %d (domains %d) runs on %d workers, want 8",
			plan.total, domains, got)
	}
}

// TestPooledAggregatorsSizedByAnswer: the fused workers a DB pools keep
// aggregation arrays no larger than the largest answer space a query asked
// for, not the largest attribute-domain product.
func TestPooledAggregatorsSizedByAnswer(t *testing.T) {
	data := ssb.Generate(0.05)
	db := BuildDB(data, true)
	cfg := FusedOpt
	cfg.Workers = 2
	var maxCells int64
	for pass := 0; pass < 2; pass++ {
		for _, q := range ssb.Queries() {
			db.Run(q, cfg, nil)
			maxCells = max(maxCells, answerSpace(data, q)*int64(len(q.AggSpecs())))
		}
	}
	// A garbage collection may empty the pool (and the race detector drops
	// some puts), so an empty pool is logged, not failed.
	pooled := 0
	for {
		ws, _ := db.fusedPool.Get().(*fusedWorker)
		if ws == nil {
			break
		}
		pooled++
		if c := int64(cap(ws.agg.sums)); c > maxCells {
			t.Errorf("a pooled worker holds %d aggregate cells; the largest answer needs %d", c, maxCells)
		}
	}
	t.Logf("%d pooled workers checked against %d cells", pooled, maxCells)
}

// overflowSQL groups by nine columns whose catalog code spaces multiply to
// about 1.2e20 cells at SF=0.01, and more at larger scale: past int64, the
// type of the composite group index.
const overflowSQL = "select count(*) from lineorder, customer, supplier, dwdate " +
	"where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and lo_quantity < 3 " +
	"group by d_date, d_yearmonthnum, d_daynuminyear, c_name, c_address, c_phone, s_name, s_address, s_phone"

// TestGroupSpaceOverflowRefused: a GROUP BY whose composite group space
// does not fit in int64 fails its one query with an error, before anything
// is read, on the fused, per-probe and tuple-at-a-time engines, instead of
// panicking in the aggregate layout.
func TestGroupSpaceOverflowRefused(t *testing.T) {
	q, err := sql.Parse("overflow", overflowSQL)
	if err != nil {
		t.Fatal(err)
	}
	ticl := Figure7Configs()[6]
	for _, run := range []struct {
		db  *DB
		cfg Config
	}{{testDBC, FusedOpt}, {testDBC, FullOpt}, {testDBPlain, ticl}} {
		var st iosim.Stats
		res, err := run.db.RunCtx(context.Background(), q, run.cfg, &st)
		if err == nil || res != nil {
			t.Errorf("%s: got result %v, error %v; want an error", run.cfg.Code(), res, err)
		}
		if st != (iosim.Stats{}) {
			t.Errorf("%s: charged %+v before refusing", run.cfg.Code(), st)
		}
	}
}
