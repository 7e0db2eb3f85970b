package exec

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/ssb"
)

// Explain renders the physical plan the column executor would run for q
// under cfg. It compiles the same Plan RunCtx executes (so it performs join
// phase 1 for real — dimension predicate evaluation — but touches no fact
// data) and prints it: the phase-1 outcomes (between-predicate rewriting vs
// membership fallback), the probe order over fact columns, the phase-3
// extraction strategy per group column, and the aggregate list.
func (db *DB) Explain(q *ssb.Query, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query %s on column store [%s]\n", q.ID, cfg.Code())
	if !cfg.LateMat {
		cols := q.NeededFactColumns()
		fmt.Fprintf(&b, "  EARLY MATERIALIZATION: construct %d-column tuples for all %d rows first\n",
			len(cols), db.numRows)
		fmt.Fprintf(&b, "    fact columns read in full: %s\n", strings.Join(cols, ", "))
		fmt.Fprintf(&b, "  then row-at-a-time: filters -> dimension hash probes -> hash aggregation\n")
		return b.String()
	}

	if _, err := db.groupSpace(q); err != nil {
		fmt.Fprintf(&b, "  refused: %v\n", err)
		return b.String()
	}
	plan := db.compile(q, cfg, nil)
	probes := plan.probes
	if cfg.FusedActive() {
		nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
		fmt.Fprintf(&b, "  FUSED: one block-at-a-time pass over %d workers; probes, extraction and aggregation run per 64K block\n",
			fusedWorkersFor(cfg.Workers, plan.total, nb))
	}
	fmt.Fprintf(&b, "  phase 2 probe order (pipelined, candidates shrink left to right):\n")
	for i, p := range probes {
		switch {
		case p.isPred && p.sortedFirst:
			fmt.Fprintf(&b, "    %d. %-14s BETWEEN %d AND %d   (sorted column: positions form one range)\n",
				i+1, p.col.Name, p.pred.A, p.pred.B)
		case p.isPred:
			fmt.Fprintf(&b, "    %d. %-14s %s", i+1, p.col.Name, predString(p))
			b.WriteString("\n")
		case p.dense != nil:
			fmt.Fprintf(&b, "    %d. %-14s dense-bitmap probe against %d dimension keys in [%d, %d]\n",
				i+1, p.col.Name, p.keyCount(), p.setMin, p.setMax)
		default:
			fmt.Fprintf(&b, "    %d. %-14s hash probe against %d dimension keys (no contiguous range)\n",
				i+1, p.col.Name, p.keyCount())
		}
	}
	if len(probes) == 0 {
		fmt.Fprintf(&b, "    (none: full table)\n")
	}

	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, "  phase 3 group extraction at final positions:\n")
		for _, g := range q.GroupBy {
			switch {
			case !cfg.InvisibleJoin:
				fmt.Fprintf(&b, "    %s.%s via hash table (late-materialized join)\n", g.Dim, g.Col)
			case g.Dim == ssb.DimDate && cfg.FusedActive():
				fmt.Fprintf(&b, "    %s.%s via dense datekey->position array (no per-row hash)\n", g.Dim, g.Col)
			case g.Dim == ssb.DimDate:
				fmt.Fprintf(&b, "    %s.%s via datekey lookup (key is not a position: full join)\n", g.Dim, g.Col)
			default:
				fmt.Fprintf(&b, "    %s.%s via direct array extraction (keys reassigned to positions)\n", g.Dim, g.Col)
			}
		}
	}
	if cfg.FusedActive() && len(q.GroupBy) > 0 {
		domains, _ := db.groupSpace(q)
		fmt.Fprintf(&b, "  group space: %d cells (attribute domains: %d)\n", plan.total, domains)
	}
	rendered := make([]string, len(plan.specs))
	for i, s := range plan.specs {
		rendered[i] = s.String()
	}
	fmt.Fprintf(&b, "  aggregate: %s\n", strings.Join(rendered, ", "))
	return b.String()
}

func predString(p *factProbe) string {
	switch {
	case p.pred.Op.String() == "between":
		return fmt.Sprintf("BETWEEN %d AND %d", p.pred.A, p.pred.B)
	case len(p.pred.Set) > 0:
		return fmt.Sprintf("IN (%d values)", len(p.pred.Set))
	default:
		return fmt.Sprintf("%s %d", p.pred.Op, p.pred.A)
	}
}
