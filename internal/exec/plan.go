package exec

import (
	"repro/internal/colstore"
	"repro/internal/iosim"
	"repro/internal/ssb"
)

// Plan is a query compiled against one snapshot's sealed store: join phase
// 1 already evaluated into ordered fact probes, the group extractors with
// their composite-key layout, and the aggregate cell layout. It is built
// once per execution (compile) and is the single value every consumer reads
// — the per-probe and fused engines, the delta scan, Explain — so phase 1
// runs once however many stores the query touches. It is immutable but for
// the extractors' attribute arrays, which load on first use
// (loadExtractors).
type Plan struct {
	q   *ssb.Query
	cfg Config
	// probes are the fact-side predicates in application order.
	probes []*factProbe
	// aggShape is the aggregate half: specs, distinct input columns, group
	// extractors, strides.
	*aggShape
	// kernels enables the encoding-native aggregation/selection kernels
	// (Config.KernelsActive): the selection stays bitmap-shaped through
	// dense non-RLE probes, deletion masking is word-wise, and measure
	// extraction runs GatherSelect/AggSelect directly on compressed blocks.
	kernels bool
	// slots names the fact columns the block routine reads, one slot per
	// use: probe columns, then aggregate inputs, then group foreign keys.
	// A morsel binds each slot to a column of the store it scans (bind), so
	// the same plan runs over sealed blocks and delta batches.
	slots []string
}

// compile runs join phase 1, charging its dimension-side I/O to st, and
// lays out extraction and aggregation for q under cfg.
func (db *DB) compile(q *ssb.Query, cfg Config, st *iosim.Stats) *Plan {
	plan := &Plan{q: q, cfg: cfg, probes: db.planProbes(q, cfg, st), kernels: cfg.KernelsActive()}
	exs := make([]*groupExtractor, len(q.GroupBy))
	for i, g := range q.GroupBy {
		exs[i] = db.newGroupExtractor(g)
	}
	plan.aggShape = newAggShape(q.AggSpecs(), exs)
	for _, p := range plan.probes {
		plan.slots = append(plan.slots, p.col.Name)
	}
	plan.slots = append(plan.slots, plan.inputs...)
	for _, ex := range exs {
		plan.slots = append(plan.slots, ex.fkCol.Name)
	}
	return plan
}

// loadExtractors reads the group attribute columns — join phase 3's
// dimension side — charging st. Each consumer calls it where its pipeline
// first extracts: the fused engine with the plan (every block extracts), the
// per-probe engine only once phase 2 has left positions, the delta scan
// before its first morsel; it is a no-op once loaded. Called from the
// query's goroutine before any worker reads the extractors.
func (plan *Plan) loadExtractors(db *DB, st *iosim.Stats) {
	// The fused pipeline always extracts by direct array indexing (the
	// flag subsumes the invisible-join ablation), so it never pays for the
	// hash-join layout.
	cfg := plan.cfg
	cfg.InvisibleJoin = cfg.InvisibleJoin || cfg.FusedActive()
	for _, ex := range plan.exs {
		if ex.attr == nil {
			ex.load(db, cfg, st)
		}
	}
}

// bind resolves the plan's slots against one store's columns.
func (plan *Plan) bind(column func(name string) *colstore.Column) []*colstore.Column {
	cols := make([]*colstore.Column, len(plan.slots))
	for i, name := range plan.slots {
		cols[i] = column(name)
	}
	return cols
}

// foldsBlocks reports whether surviving blocks end in a decode-free
// AggSelect fold (no gather of aggregate inputs), which is when keeping a
// dense selection bitmap-shaped through the probe chain pays for itself.
func (plan *Plan) foldsBlocks() bool {
	return plan.kernels && plan.kernelable && len(plan.exs) == 0
}
