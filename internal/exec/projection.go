package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/ssb"
)

// Projection is a redundant copy of the fact table stored in a different
// sort order — the C-Store mechanism the paper deliberately left out
// ("we do not store multiple copies of the fact table in different sort
// orders ... so we expect compression to have a somewhat smaller effect on
// performance than it could if more aggressive redundancy was used",
// Section 5.1). All 17 columns are permuted together, so position semantics
// and foreign-key reassignment are preserved; only the sort keys change.
type Projection struct {
	Name string
	// SortCols is the sort hierarchy, most significant first.
	SortCols []string
	// Table holds the permuted columns; SortCols[0] is PrimarySort.
	Table *colstore.Table
}

// BuildProjection materializes a projection of db's fact table sorted by
// the given column hierarchy.
func (db *DB) BuildProjection(name string, sortCols []string) (*Projection, error) {
	if len(sortCols) == 0 {
		return nil, fmt.Errorf("exec: projection needs at least one sort column")
	}
	keys := make([][]int32, len(sortCols))
	for i, c := range sortCols {
		col, err := db.Fact.Column(c)
		if err != nil {
			return nil, err
		}
		keys[i] = col.DecodeAll(nil, nil)
	}
	n := db.numRows
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		for _, k := range keys {
			if k[ia] != k[ib] {
				return k[ia] < k[ib]
			}
		}
		return ia < ib
	})

	t := colstore.NewTable(name)
	for _, colName := range db.Fact.ColumnNames() {
		src := db.Fact.MustColumn(colName)
		vals := src.DecodeAll(nil, nil)
		re := make([]int32, n)
		for p, orig := range perm {
			re[p] = vals[orig]
		}
		kind := colstore.Unsorted
		for si, sc := range sortCols {
			if sc == colName {
				if si == 0 {
					kind = colstore.PrimarySort
				} else {
					kind = colstore.SecondarySort
				}
			}
		}
		t.AddColumn(colstore.NewColumn(colName, re, src.Dict, kind, db.Compressed))
	}
	return &Projection{Name: name, SortCols: append([]string(nil), sortCols...), Table: t}, nil
}

// AddProjection registers a projection for optimizer consideration.
func (db *DB) AddProjection(p *Projection) {
	db.projections = append(db.projections, p)
}

// Projections returns the registered projections.
func (db *DB) Projections() []*Projection { return db.projections }

// withFact returns a shallow copy of db whose fact table is t; used to run
// the standard pipeline against a projection.
func (db *DB) withFact(t *colstore.Table) *DB {
	clone := *db
	clone.Fact = t
	return &clone
}

// chooseProjection picks the best table for q: a projection whose primary
// sort column will receive an interval probe (so predicate application
// collapses to a contiguous position range) wins over the base table; the
// base table's own orderdate sort competes on the same terms.
func (db *DB) chooseProjection(q *ssb.Query, cfg Config) *DB {
	if len(db.projections) == 0 || !cfg.LateMat {
		return db
	}
	// Phase 1 decides which sort order pays: compile once, uncharged, and
	// score every candidate from the plan's probes. This is planning ahead
	// of the execution — the chosen table's own run compiles (and charges)
	// against its columns — and compile reads nothing for the aggregate half
	// (extractors load only when an engine extracts).
	plan := db.compile(q, cfg, nil)
	best := db
	bestScore := db.projectionScore(plan, "orderdate")
	for _, p := range db.projections {
		if s := db.projectionScore(plan, p.SortCols[0]); s > bestScore {
			best = db.withFact(p.Table)
			bestScore = s
		}
	}
	return best
}

// projectionScore estimates the benefit of a table whose primary sort
// column is sortCol: the count of fact rows eliminated by turning that
// column's probe into a contiguous range. Zero when no interval probe
// targets the column.
func (db *DB) projectionScore(plan *Plan, sortCol string) float64 {
	// Fact measure filter directly on the sort column.
	for _, f := range plan.q.FactFilters {
		if f.Col == sortCol {
			if _, _, ok := f.Pred.Bounds(); ok {
				return 1
			}
		}
	}
	if !plan.cfg.InvisibleJoin {
		return 0
	}
	// Dimension probe that phase 1 rewrote to a between predicate on the
	// sort column: its selectivity on the dimension translates directly to
	// eliminated fact rows under the sort.
	for _, dim := range plan.q.DimsUsed() {
		if dim.FactFK() != sortCol {
			continue
		}
		for _, probe := range plan.probes {
			if probe.col.Name != sortCol || !probe.isPred || probe.pred.Op != compress.OpBetween {
				continue
			}
			dimN := float64(db.Dims[dim].NumRows())
			width := float64(probe.pred.B-probe.pred.A) + 1
			if dim == ssb.DimDate {
				dimN = float64(len(db.dateByKey))
				// Key-space width over-counts (yyyymmdd gaps);
				// good enough for ranking.
			}
			if width < dimN {
				return 2 * (1 - width/dimN)
			}
		}
	}
	return 0
}

// RunBest executes q using the best available projection (falling back to
// the base orderdate-sorted table), returning the chosen table name along
// with the result.
func (db *DB) RunBest(q *ssb.Query, cfg Config, st *iosim.Stats) (*ssb.Result, string) {
	res, name, _ := db.RunBestCtx(context.Background(), q, cfg, st)
	return res, name
}

// RunBestCtx is RunBest with cancellation, observed by the chosen clone's
// pipelines exactly as in RunCtx (projection choice itself is metadata-only
// and not worth a check).
func (db *DB) RunBestCtx(ctx context.Context, q *ssb.Query, cfg Config, st *iosim.Stats) (*ssb.Result, string, error) {
	if db.ingest != nil {
		// Projections index the frozen base row space only; a DB taking
		// writes answers from the base table plus the write store.
		res, err := db.RunCtx(ctx, q, cfg, st)
		return res, db.Fact.Name, err
	}
	chosen := db.chooseProjection(q, cfg)
	res, err := chosen.RunCtx(ctx, q, cfg, st)
	return res, chosen.Fact.Name, err
}
