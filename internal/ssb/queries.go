package ssb

import (
	"slices"
	"sync"

	"repro/internal/compress"
)

// Dim identifies one of the four SSBM dimension tables.
type Dim uint8

const (
	// DimCustomer is the CUSTOMER dimension.
	DimCustomer Dim = iota
	// DimSupplier is the SUPPLIER dimension.
	DimSupplier
	// DimPart is the PART dimension.
	DimPart
	// DimDate is the DATE dimension.
	DimDate
)

// String returns the dimension's table name.
func (d Dim) String() string {
	switch d {
	case DimCustomer:
		return "customer"
	case DimSupplier:
		return "supplier"
	case DimPart:
		return "part"
	case DimDate:
		return "dwdate"
	default:
		return "?"
	}
}

// FactFK returns the fact-table foreign key column referencing d.
func (d Dim) FactFK() string {
	switch d {
	case DimCustomer:
		return "custkey"
	case DimSupplier:
		return "suppkey"
	case DimPart:
		return "partkey"
	default:
		return "orderdate"
	}
}

// KeyCol returns the dimension's primary key column.
func (d Dim) KeyCol() string { return d.Cols()[0].Name }

// DimFilter is one restriction on a dimension attribute. String columns use
// StrA/StrB/StrSet; integer columns (year, yearmonthnum, weeknuminyear) use
// IntA/IntB/IntSet with IsInt set.
type DimFilter struct {
	Dim    Dim
	Col    string
	Op     compress.Op
	StrA   string
	StrB   string
	StrSet []string
	IsInt  bool
	IntA   int32
	IntB   int32
	IntSet []int32
}

// IntPred renders an integer DimFilter as a compress.Pred.
func (f DimFilter) IntPred() compress.Pred {
	switch f.Op {
	case compress.OpEq:
		return compress.Eq(f.IntA)
	case compress.OpBetween:
		return compress.Between(f.IntA, f.IntB)
	case compress.OpIn:
		return compress.In(append([]int32(nil), f.IntSet...)...)
	case compress.OpLt:
		return compress.Lt(f.IntA)
	case compress.OpLe:
		return compress.Le(f.IntA)
	case compress.OpGt:
		return compress.Gt(f.IntA)
	case compress.OpGe:
		return compress.Ge(f.IntA)
	default:
		return compress.Pred{Op: f.Op, A: f.IntA, B: f.IntB}
	}
}

// MatchStr evaluates a string DimFilter against a value.
func (f DimFilter) MatchStr(s string) bool {
	switch f.Op {
	case compress.OpEq:
		return s == f.StrA
	case compress.OpNe:
		return s != f.StrA
	case compress.OpBetween:
		return s >= f.StrA && s <= f.StrB
	case compress.OpIn:
		for _, v := range f.StrSet {
			if s == v {
				return true
			}
		}
		return false
	case compress.OpLt:
		return s < f.StrA
	case compress.OpLe:
		return s <= f.StrA
	case compress.OpGt:
		return s > f.StrA
	case compress.OpGe:
		return s >= f.StrA
	default:
		return false
	}
}

// FactFilter is a predicate on a fact-table measure column (the fixed SSBM
// queries restrict discount and quantity; ad-hoc plans may use any column
// in MeasureCols).
type FactFilter struct {
	Col  string
	Pred compress.Pred
}

// GroupCol names a dimension attribute in the GROUP BY list.
type GroupCol struct {
	Dim Dim
	Col string
}

// Query is one SSBM query as a logical plan. Both the row and column
// executors compile Queries from this shared description, so result
// equivalence checks compare like with like.
type Query struct {
	ID          string
	Flight      int
	FactFilters []FactFilter
	DimFilters  []DimFilter
	GroupBy     []GroupCol
	// Aggs is the SELECT list: one SUM for each of the thirteen SSBM
	// queries, any list of aggregates for ad-hoc plans.
	Aggs []AggSpec
	// PaperSelectivity is the LINEORDER selectivity published in paper
	// Section 3, pinned by generator tests.
	PaperSelectivity float64
}

// DimsUsed returns the set of dimensions referenced by filters or group-by.
func (q *Query) DimsUsed() []Dim {
	seen := map[Dim]bool{}
	var out []Dim
	add := func(d Dim) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, f := range q.DimFilters {
		add(f.Dim)
	}
	for _, g := range q.GroupBy {
		add(g.Dim)
	}
	return out
}

// strEq builds an equality filter on a string dimension column.
func strEq(d Dim, col, v string) DimFilter {
	return DimFilter{Dim: d, Col: col, Op: compress.OpEq, StrA: v}
}

// sumOf is the one-aggregate list of an SSBM query: sum(a), sum(a*b) or
// sum(a-b). Each query gets its own slice, since callers may edit the plans
// Queries returns.
func sumOf(a string, op byte, b string) []AggSpec {
	return []AggSpec{{Func: FuncSum, Expr: AggExpr{ColA: a, Op: op, ColB: b}}}
}

// Queries returns the thirteen SSBM queries (paper Section 3).
func Queries() []*Query {
	return []*Query{
		{
			ID: "1.1", Flight: 1, Aggs: sumOf("extendedprice", '*', "discount"),
			DimFilters: []DimFilter{
				{Dim: DimDate, Col: "year", Op: compress.OpEq, IsInt: true, IntA: 1993},
			},
			FactFilters: []FactFilter{
				{Col: "discount", Pred: compress.Between(1, 3)},
				{Col: "quantity", Pred: compress.Lt(25)},
			},
			PaperSelectivity: 1.9e-2,
		},
		{
			ID: "1.2", Flight: 1, Aggs: sumOf("extendedprice", '*', "discount"),
			DimFilters: []DimFilter{
				{Dim: DimDate, Col: "yearmonthnum", Op: compress.OpEq, IsInt: true, IntA: 199401},
			},
			FactFilters: []FactFilter{
				{Col: "discount", Pred: compress.Between(4, 6)},
				{Col: "quantity", Pred: compress.Between(26, 35)},
			},
			PaperSelectivity: 6.5e-4,
		},
		{
			ID: "1.3", Flight: 1, Aggs: sumOf("extendedprice", '*', "discount"),
			DimFilters: []DimFilter{
				{Dim: DimDate, Col: "weeknuminyear", Op: compress.OpEq, IsInt: true, IntA: 6},
				{Dim: DimDate, Col: "year", Op: compress.OpEq, IsInt: true, IntA: 1994},
			},
			FactFilters: []FactFilter{
				{Col: "discount", Pred: compress.Between(5, 7)},
				{Col: "quantity", Pred: compress.Between(36, 40)},
			},
			PaperSelectivity: 7.5e-5,
		},
		{
			ID: "2.1", Flight: 2, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				strEq(DimPart, "category", "MFGR#12"),
				strEq(DimSupplier, "region", "AMERICA"),
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimPart, Col: "brand1"},
			},
			PaperSelectivity: 8.0e-3,
		},
		{
			ID: "2.2", Flight: 2, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				{Dim: DimPart, Col: "brand1", Op: compress.OpBetween, StrA: "MFGR#2221", StrB: "MFGR#2228"},
				strEq(DimSupplier, "region", "ASIA"),
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimPart, Col: "brand1"},
			},
			PaperSelectivity: 1.6e-3,
		},
		{
			ID: "2.3", Flight: 2, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				strEq(DimPart, "brand1", "MFGR#2239"),
				strEq(DimSupplier, "region", "EUROPE"),
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimPart, Col: "brand1"},
			},
			PaperSelectivity: 2.0e-4,
		},
		{
			ID: "3.1", Flight: 3, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				strEq(DimCustomer, "region", "ASIA"),
				strEq(DimSupplier, "region", "ASIA"),
				{Dim: DimDate, Col: "year", Op: compress.OpBetween, IsInt: true, IntA: 1992, IntB: 1997},
			},
			GroupBy: []GroupCol{
				{Dim: DimCustomer, Col: "nation"},
				{Dim: DimSupplier, Col: "nation"},
				{Dim: DimDate, Col: "year"},
			},
			PaperSelectivity: 3.4e-2,
		},
		{
			ID: "3.2", Flight: 3, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				strEq(DimCustomer, "nation", "UNITED STATES"),
				strEq(DimSupplier, "nation", "UNITED STATES"),
				{Dim: DimDate, Col: "year", Op: compress.OpBetween, IsInt: true, IntA: 1992, IntB: 1997},
			},
			GroupBy: []GroupCol{
				{Dim: DimCustomer, Col: "city"},
				{Dim: DimSupplier, Col: "city"},
				{Dim: DimDate, Col: "year"},
			},
			PaperSelectivity: 1.4e-3,
		},
		{
			ID: "3.3", Flight: 3, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				{Dim: DimCustomer, Col: "city", Op: compress.OpIn, StrSet: []string{CityOf("UNITED KINGDOM", 1), CityOf("UNITED KINGDOM", 5)}},
				{Dim: DimSupplier, Col: "city", Op: compress.OpIn, StrSet: []string{CityOf("UNITED KINGDOM", 1), CityOf("UNITED KINGDOM", 5)}},
				{Dim: DimDate, Col: "year", Op: compress.OpBetween, IsInt: true, IntA: 1992, IntB: 1997},
			},
			GroupBy: []GroupCol{
				{Dim: DimCustomer, Col: "city"},
				{Dim: DimSupplier, Col: "city"},
				{Dim: DimDate, Col: "year"},
			},
			PaperSelectivity: 5.5e-5,
		},
		{
			ID: "3.4", Flight: 3, Aggs: sumOf("revenue", 0, ""),
			DimFilters: []DimFilter{
				{Dim: DimCustomer, Col: "city", Op: compress.OpIn, StrSet: []string{CityOf("UNITED KINGDOM", 1), CityOf("UNITED KINGDOM", 5)}},
				{Dim: DimSupplier, Col: "city", Op: compress.OpIn, StrSet: []string{CityOf("UNITED KINGDOM", 1), CityOf("UNITED KINGDOM", 5)}},
				strEq(DimDate, "yearmonth", "Dec1997"),
			},
			GroupBy: []GroupCol{
				{Dim: DimCustomer, Col: "city"},
				{Dim: DimSupplier, Col: "city"},
				{Dim: DimDate, Col: "year"},
			},
			PaperSelectivity: 7.6e-7,
		},
		{
			ID: "4.1", Flight: 4, Aggs: sumOf("revenue", '-', "supplycost"),
			DimFilters: []DimFilter{
				strEq(DimCustomer, "region", "AMERICA"),
				strEq(DimSupplier, "region", "AMERICA"),
				{Dim: DimPart, Col: "mfgr", Op: compress.OpIn, StrSet: []string{"MFGR#1", "MFGR#2"}},
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimCustomer, Col: "nation"},
			},
			PaperSelectivity: 1.6e-2,
		},
		{
			ID: "4.2", Flight: 4, Aggs: sumOf("revenue", '-', "supplycost"),
			DimFilters: []DimFilter{
				strEq(DimCustomer, "region", "AMERICA"),
				strEq(DimSupplier, "region", "AMERICA"),
				{Dim: DimDate, Col: "year", Op: compress.OpIn, IsInt: true, IntSet: []int32{1997, 1998}},
				{Dim: DimPart, Col: "mfgr", Op: compress.OpIn, StrSet: []string{"MFGR#1", "MFGR#2"}},
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimSupplier, Col: "nation"},
				{Dim: DimPart, Col: "category"},
			},
			PaperSelectivity: 4.5e-3,
		},
		{
			ID: "4.3", Flight: 4, Aggs: sumOf("revenue", '-', "supplycost"),
			DimFilters: []DimFilter{
				strEq(DimCustomer, "region", "AMERICA"),
				strEq(DimSupplier, "nation", "UNITED STATES"),
				{Dim: DimDate, Col: "year", Op: compress.OpIn, IsInt: true, IntSet: []int32{1997, 1998}},
				strEq(DimPart, "category", "MFGR#14"),
			},
			GroupBy: []GroupCol{
				{Dim: DimDate, Col: "year"},
				{Dim: DimSupplier, Col: "city"},
				{Dim: DimPart, Col: "brand1"},
			},
			PaperSelectivity: 9.1e-5,
		},
	}
}

// queryTable holds what lookups by id or flight need from the thirteen
// queries, built once: Queries constructs every literal afresh, which the
// serving path must not pay per request.
var queryTable = sync.OnceValue(func() (t struct {
	byID   map[string]*Query
	mvCols map[int][]string // by flight
}) {
	t.byID, t.mvCols = map[string]*Query{}, map[int][]string{}
	for _, q := range Queries() {
		t.byID[q.ID] = q
		for _, c := range q.NeededFactColumns() {
			if !slices.Contains(t.mvCols[q.Flight], c) {
				t.mvCols[q.Flight] = append(t.mvCols[q.Flight], c)
			}
		}
	}
	return t
})

// QueryByID returns the query with the given id, or nil. The value is
// shared and read-only; callers that mutate start from Queries or a copy.
func QueryByID(id string) *Query {
	return queryTable().byID[id]
}

// NeededFactColumns returns the fact-table columns required to execute q:
// measure filters, foreign keys of referenced dimensions, and aggregate
// inputs.
func (q *Query) NeededFactColumns() []string {
	seen := map[string]bool{}
	var out []string
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, f := range q.FactFilters {
		add(f.Col)
	}
	for _, d := range q.DimsUsed() {
		add(d.FactFK())
	}
	for _, s := range q.AggSpecs() {
		for _, c := range s.Expr.Columns() {
			add(c)
		}
	}
	return out
}

// FlightMVColumns returns the fact columns of the optimal per-flight
// materialized view (paper Section 4: "a view with exactly the columns
// needed to answer queries in that flight", with no pre-joining). The slice is
// shared and read-only.
func FlightMVColumns(flight int) []string {
	return queryTable().mvCols[flight]
}
