package sql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/compress"
	"repro/internal/ssb"
)

// compile lowers a resolved statement to the shared logical plan.
func compile(id string, s *stmt) (*ssb.Query, error) {
	q := &ssb.Query{ID: id}

	// Aggregates: each is sum/min/max over a measure expression, or
	// count(*).
	q.Aggs = make([]ssb.AggSpec, len(s.aggs))
	for i, it := range s.aggs {
		spec, err := compileAgg(it)
		if err != nil {
			return nil, err
		}
		q.Aggs[i] = spec
	}

	// Predicates.
	for _, pr := range s.preds {
		if pr.left.isFact {
			ff, err := compileFactFilter(pr)
			if err != nil {
				return nil, err
			}
			q.FactFilters = append(q.FactFilters, ff)
			continue
		}
		df, err := compileDimFilter(pr)
		if err != nil {
			return nil, err
		}
		q.DimFilters = append(q.DimFilters, df)
	}

	// Group by.
	for _, g := range s.groupBy {
		q.GroupBy = append(q.GroupBy, ssb.GroupCol{Dim: g.dim, Col: g.col})
	}

	// Every referenced dimension must be joined in the FROM/WHERE.
	for _, dim := range q.DimsUsed() {
		if !s.joins[dim] {
			return nil, fmt.Errorf("sql: query references %s but has no join between lo_%s and %s.%s",
				dim, dim.FactFK(), dim, dim.KeyCol())
		}
	}
	q.Flight = inferFlight(q)
	return q, nil
}

// compileAgg lowers one SELECT-list aggregate to its spec, validating the
// expression operands against the measure set every engine materializes.
func compileAgg(it aggItem) (ssb.AggSpec, error) {
	if it.fn == ssb.FuncCount {
		// count(expr) over never-NULL measures is count(*).
		return ssb.AggSpec{Func: ssb.FuncCount}, nil
	}
	check := func(r colRef) error {
		if !r.isFact || !ssb.IsMeasureCol(r.col) {
			return fmt.Errorf("sql: aggregate expressions are supported over lineorder measures (%s)", strings.Join(ssb.MeasureCols, ", "))
		}
		return nil
	}
	if err := check(it.a); err != nil {
		return ssb.AggSpec{}, err
	}
	expr := ssb.AggExpr{ColA: it.a.col, Op: it.op}
	if it.op != 0 {
		if err := check(it.b); err != nil {
			return ssb.AggSpec{}, err
		}
		expr.ColB = it.b.col
	}
	return ssb.AggSpec{Func: it.fn, Expr: expr}, nil
}

// compileFactFilter lowers a lineorder measure predicate.
func compileFactFilter(pr pred) (ssb.FactFilter, error) {
	if !ssb.IsMeasureCol(pr.left.col) {
		return ssb.FactFilter{}, fmt.Errorf("sql: fact predicates are supported on lineorder measures (%s), got lo_%s",
			strings.Join(ssb.MeasureCols, ", "), pr.left.col)
	}
	if pr.isStr {
		return ssb.FactFilter{}, fmt.Errorf("sql: lo_%s is an integer column", pr.left.col)
	}
	p, err := intPred(pr)
	if err != nil {
		return ssb.FactFilter{}, err
	}
	return ssb.FactFilter{Col: pr.left.col, Pred: p}, nil
}

// intPred converts the literal(s) of an integer predicate.
func intPred(pr pred) (compress.Pred, error) {
	v := func(i int) int32 { return int32(pr.intVals[i]) }
	switch pr.op {
	case "=":
		return compress.Eq(v(0)), nil
	case "<":
		return compress.Lt(v(0)), nil
	case "<=":
		return compress.Le(v(0)), nil
	case ">":
		return compress.Gt(v(0)), nil
	case ">=":
		return compress.Ge(v(0)), nil
	case "<>":
		return compress.Pred{Op: compress.OpNe, A: v(0)}, nil
	case "between":
		return compress.Between(v(0), v(1)), nil
	case "in":
		set := make([]int32, len(pr.intVals))
		for i := range pr.intVals {
			set[i] = v(i)
		}
		return compress.In(set...), nil
	default:
		return compress.Pred{}, fmt.Errorf("sql: unsupported operator %q", pr.op)
	}
}

// compileDimFilter lowers a dimension attribute predicate.
func compileDimFilter(pr pred) (ssb.DimFilter, error) {
	f := ssb.DimFilter{Dim: pr.left.dim, Col: pr.left.col}
	isInt := colIsInt(pr.left)
	if isInt == pr.isStr && len(pr.strVals)+len(pr.intVals) > 0 {
		want := "integer"
		if !isInt {
			want = "string"
		}
		return f, fmt.Errorf("sql: %s.%s expects %s literals", pr.left.dim, pr.left.col, want)
	}
	var op compress.Op
	switch pr.op {
	case "=":
		op = compress.OpEq
	case "<":
		op = compress.OpLt
	case "<=":
		op = compress.OpLe
	case ">":
		op = compress.OpGt
	case ">=":
		op = compress.OpGe
	case "<>":
		op = compress.OpNe
	case "between":
		op = compress.OpBetween
	case "in":
		op = compress.OpIn
	default:
		return f, fmt.Errorf("sql: unsupported operator %q", pr.op)
	}
	f.Op = op
	if isInt {
		f.IsInt = true
		switch op {
		case compress.OpBetween:
			f.IntA, f.IntB = int32(pr.intVals[0]), int32(pr.intVals[1])
		case compress.OpIn:
			for _, v := range pr.intVals {
				f.IntSet = append(f.IntSet, int32(v))
			}
		default:
			f.IntA = int32(pr.intVals[0])
		}
		return f, nil
	}
	switch op {
	case compress.OpBetween:
		f.StrA, f.StrB = pr.strVals[0], pr.strVals[1]
	case compress.OpIn:
		f.StrSet = append(f.StrSet, pr.strVals...)
	default:
		f.StrA = pr.strVals[0]
	}
	return f, nil
}

// inferFlight classifies the query into the SSBM flight whose per-flight MV
// covers it, or 0 when none does (ad-hoc queries can still run on every
// non-MV design).
func inferFlight(q *ssb.Query) int {
	needed := q.NeededFactColumns()
	for flight := 1; flight <= 4; flight++ {
		cover := ssb.FlightMVColumns(flight)
		uncovered := func(c string) bool { return !slices.Contains(cover, c) }
		if !slices.ContainsFunc(needed, uncovered) {
			return flight
		}
	}
	return 0
}
