package ssb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/compress"
)

// This file defines the aggregate model: a query carries a list of
// aggregates (SUM/COUNT/MIN/MAX) over fact-measure expressions, and a result
// row carries one value per aggregate. Each of the thirteen SSBM queries
// lists one SUM; every engine reads the list.

// AggFunc is the aggregate function applied to an expression.
type AggFunc uint8

const (
	// FuncSum is SUM(expr).
	FuncSum AggFunc = iota
	// FuncCount is COUNT(*): the number of qualifying fact rows. The
	// expression is ignored (SSBM measures are never NULL, so COUNT(expr)
	// and COUNT(*) coincide).
	FuncCount
	// FuncMin is MIN(expr).
	FuncMin
	// FuncMax is MAX(expr).
	FuncMax
)

// String returns the SQL spelling of the function.
func (f AggFunc) String() string {
	switch f {
	case FuncSum:
		return "sum"
	case FuncCount:
		return "count"
	case FuncMin:
		return "min"
	default:
		return "max"
	}
}

// AggExpr is a fact-measure expression: a single column (Op 0), a product
// ('*') or a difference ('-') of two columns — the three forms the SSBM
// queries use, opened up to any measure columns.
type AggExpr struct {
	ColA string
	Op   byte // 0: ColA; '*': ColA*ColB; '-': ColA-ColB
	ColB string
}

// Columns returns the fact columns the expression reads.
func (e AggExpr) Columns() []string {
	if e.ColA == "" {
		return nil
	}
	if e.Op == 0 {
		return []string{e.ColA}
	}
	return []string{e.ColA, e.ColB}
}

// Eval computes the expression over one row's column values (b is ignored
// for single-column expressions).
func (e AggExpr) Eval(a, b int32) int64 {
	switch e.Op {
	case '*':
		return int64(a) * int64(b)
	case '-':
		return int64(a) - int64(b)
	default:
		return int64(a)
	}
}

// String renders the expression with SSB lo_ prefixes.
func (e AggExpr) String() string {
	if e.ColA == "" {
		return "*"
	}
	if e.Op == 0 {
		return "lo_" + e.ColA
	}
	return fmt.Sprintf("lo_%s %c lo_%s", e.ColA, e.Op, e.ColB)
}

// AggSpec is one aggregate of the SELECT list.
type AggSpec struct {
	Func AggFunc
	Expr AggExpr
}

// String renders the aggregate as SQL, e.g. "sum(lo_revenue)".
func (s AggSpec) String() string {
	if s.Func == FuncCount {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", s.Func, s.Expr)
}

// Identity is the accumulator's starting value: the element combining to
// itself under Combine. MIN/MAX identities are the extreme int64 values;
// groups always see at least one row, and ungrouped empty results are
// rendered as zeros by FinalizeCells.
func (s AggSpec) Identity() int64 {
	switch s.Func {
	case FuncMin:
		return math.MaxInt64
	case FuncMax:
		return math.MinInt64
	default:
		return 0
	}
}

// Combine folds one row's evaluated expression value into a cell.
func (s AggSpec) Combine(cell, v int64) int64 {
	switch s.Func {
	case FuncCount:
		return cell + 1
	case FuncMin:
		if v < cell {
			return v
		}
		return cell
	case FuncMax:
		if v > cell {
			return v
		}
		return cell
	default:
		return cell + v
	}
}

// Merge combines two partial accumulations of the same group (morsel
// workers, partitioned scans).
func (s AggSpec) Merge(a, b int64) int64 {
	switch s.Func {
	case FuncMin:
		if b < a {
			return b
		}
		return a
	case FuncMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// InitCells writes each spec's identity into cells.
func InitCells(specs []AggSpec, cells []int64) {
	for k, s := range specs {
		cells[k] = s.Identity()
	}
}

// FinalizeCells canonicalizes an ungrouped accumulation: with zero
// qualifying rows every aggregate renders as 0 (the engines' shared
// convention for SUM over empty input, extended to COUNT/MIN/MAX).
func FinalizeCells(specs []AggSpec, cells []int64, rows int64) []int64 {
	if rows == 0 {
		return make([]int64, len(specs))
	}
	return cells
}

// AggSpecs returns the query's aggregate list.
func (q *Query) AggSpecs() []AggSpec { return q.Aggs }

// AggInputs lays out the distinct fact columns the aggregate list reads and
// resolves each spec's expression operands to indexes into that list (-1
// when unused, as for COUNT).
func AggInputs(specs []AggSpec) (cols []string, ia, ib []int) {
	idx := map[string]int{}
	add := func(c string) int {
		if c == "" {
			return -1
		}
		if i, ok := idx[c]; ok {
			return i
		}
		i := len(cols)
		idx[c] = i
		cols = append(cols, c)
		return i
	}
	ia = make([]int, len(specs))
	ib = make([]int, len(specs))
	for k, s := range specs {
		ia[k], ib[k] = -1, -1
		if s.Func == FuncCount {
			continue
		}
		ia[k] = add(s.Expr.ColA)
		if s.Expr.Op != 0 {
			ib[k] = add(s.Expr.ColB)
		}
	}
	return cols, ia, ib
}

// MakeRow builds a result row from accumulated cells. It copies cells, so
// callers may reuse their accumulator.
func MakeRow(keys []string, cells []int64) ResultRow {
	return ResultRow{Keys: keys, Aggs: append([]int64(nil), cells...)}
}

// MeasureCols are the LINEORDER measure columns open to generalized fact
// filters and aggregate expressions: the set every engine materializes
// (vertical partitions and fact indexes included).
var MeasureCols = []string{"quantity", "extendedprice", "discount", "revenue", "supplycost"}

// IsMeasureCol reports whether name is in MeasureCols.
func IsMeasureCol(name string) bool {
	for _, c := range MeasureCols {
		if c == name {
			return true
		}
	}
	return false
}

// IntCol returns the named integer fact column, or nil (the two string
// attributes and unknown names).
func (lo *Lineorders) IntCol(name string) []int32 {
	if c, ok := FindCol(FactCols, name); ok && c.IsInt() {
		return *c.Int(lo)
	}
	return nil
}

// MustIntCol is IntCol that panics on unknown columns.
func (lo *Lineorders) MustIntCol(name string) []int32 {
	c := lo.IntCol(name)
	if c == nil {
		panic("ssb: lineorder has no integer column " + name)
	}
	return c
}

// SQL renders the query in the SSBM dialect accepted by internal/sql, so
// any plan — including generated ad-hoc ones — can be reproduced from the
// command line (ssb-query -sql '...') and round-tripped through the
// frontend.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, s := range q.AggSpecs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" from lineorder")
	dims := q.DimsUsed()
	for _, d := range dims {
		b.WriteString(", ")
		b.WriteString(d.String())
	}
	var conj []string
	for _, d := range dims {
		conj = append(conj, fmt.Sprintf("lo_%s = %s", d.FactFK(), sqlDimRef(d, d.KeyCol())))
	}
	for _, f := range q.FactFilters {
		conj = append(conj, sqlIntPred("lo_"+f.Col, f.Pred))
	}
	for _, f := range q.DimFilters {
		conj = append(conj, f.sqlCond())
	}
	if len(conj) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(conj, " and "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(sqlDimRef(g.Dim, g.Col))
		}
	}
	return b.String()
}

// sqlDimRef renders a dimension column with its SSB prefix (c_/s_/p_/d_).
func sqlDimRef(d Dim, col string) string {
	switch d {
	case DimCustomer:
		return "c_" + col
	case DimSupplier:
		return "s_" + col
	case DimPart:
		return "p_" + col
	default:
		return "d_" + col
	}
}

// sqlIntPred renders an integer predicate over the named column.
func sqlIntPred(name string, p compress.Pred) string {
	switch p.Op {
	case compress.OpBetween:
		return fmt.Sprintf("%s between %d and %d", name, p.A, p.B)
	case compress.OpIn:
		vals := make([]string, len(p.Set))
		for i, v := range p.Set {
			vals[i] = fmt.Sprint(v)
		}
		return fmt.Sprintf("%s in (%s)", name, strings.Join(vals, ", "))
	default:
		return fmt.Sprintf("%s %s %d", name, sqlOp(p.Op), p.A)
	}
}

// sqlCond renders a dimension filter as a WHERE conjunct.
func (f DimFilter) sqlCond() string {
	name := sqlDimRef(f.Dim, f.Col)
	if f.IsInt {
		return sqlIntPred(name, f.IntPred())
	}
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	switch f.Op {
	case compress.OpBetween:
		return fmt.Sprintf("%s between %s and %s", name, quote(f.StrA), quote(f.StrB))
	case compress.OpIn:
		vals := make([]string, len(f.StrSet))
		for i, v := range f.StrSet {
			vals[i] = quote(v)
		}
		return fmt.Sprintf("%s in (%s)", name, strings.Join(vals, ", "))
	default:
		return fmt.Sprintf("%s %s %s", name, sqlOp(f.Op), quote(f.StrA))
	}
}

// sqlOp spells a comparison operator in SQL ("<>" for not-equal).
func sqlOp(op compress.Op) string {
	if op == compress.OpNe {
		return "<>"
	}
	return op.String()
}
