package exec

import (
	"repro/internal/colstore"
	"repro/internal/iosim"
	"repro/internal/ssb"
	"repro/internal/vector"
)

// Plan is a query compiled against one snapshot's sealed store: join phase
// 1 already evaluated into ordered fact probes, the group extractors with
// their composite-key layout, and the aggregate cell layout. It is built
// once per execution (compile) and is the single value every consumer reads
// — the per-probe and fused engines, the delta scan, Explain — so phase 1
// runs once however many stores the query touches. A fused plan reads its
// group attributes at compile and keys groups over the attribute values
// phase 1 admits; the other engines key them over the attribute domains and
// read the attributes on first use (loadExtractors). Either way the plan is
// immutable once an engine starts extracting.
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
//
// Under a fused configuration every block extracts, so compile also reads
// the group attributes (charged to st, where the plan stage records them)
// and lays out each group column over the codes its admitted dimension
// positions reach — phase 1's positions for a filtered dimension, every
// position otherwise — instead of over the whole attribute domain. That is
// sound because every phase-1 probe is exact (keyProbe): no fact row, sealed
// or delta, whose foreign key lies outside the admitted positions survives
// the probes to reach extraction, so no row reads a code compact did not
// keep. The composite space, the per-worker arrays and the fused worker
// count then scale with the answer, not with the domains' product.
func (db *DB) compile(q *ssb.Query, cfg Config, st *iosim.Stats) *Plan {
	plan := &Plan{q: q, cfg: cfg, probes: db.planProbes(q, cfg, st), kernels: cfg.KernelsActive()}
	exs := make([]*groupExtractor, len(q.GroupBy))
	for i, g := range q.GroupBy {
		exs[i] = db.newGroupExtractor(g)
		if cfg.FusedActive() {
			exs[i].load(db, false, st)
			exs[i].compact(plan.admitted(exs[i]))
		}
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

// admitted returns the dimension positions phase 1 admitted for ex's
// dimension, or nil when the query does not filter it.
func (plan *Plan) admitted(ex *groupExtractor) *vector.Positions {
	for _, p := range plan.probes {
		if p.dimPos != nil && p.col == ex.fkCol {
			return p.dimPos
		}
	}
	return nil
}

// loadExtractors reads the group attribute columns — join phase 3's
// dimension side — charging st. The per-probe engine calls it only once
// phase 2 has left positions to extract at, the delta scan before its first
// morsel; it is a no-op once loaded (always, for a fused plan, which compile
// loaded). Called from the query's goroutine before any worker reads the
// extractors.
func (plan *Plan) loadExtractors(db *DB, st *iosim.Stats) {
	for _, ex := range plan.exs {
		if ex.attr == nil {
			ex.load(db, !plan.cfg.InvisibleJoin, st)
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
