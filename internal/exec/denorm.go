package exec

import (
	"strconv"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/ssb"
	"repro/internal/vector"
)

// DenormMode selects how dimension attributes are stored in the
// pre-joined (denormalized) fact table of Figure 8.
type DenormMode uint8

const (
	// DenormNoC stores dimension attributes as unmodified strings
	// ("PJ, No C").
	DenormNoC DenormMode = iota
	// DenormIntC dictionary-encodes dimension attributes into integers
	// but applies no further compression ("PJ, Int C").
	DenormIntC
	// DenormMaxC dictionary-encodes and then compresses every column as
	// much as possible ("PJ, Max C").
	DenormMaxC
)

// String returns the Figure 8 label for the mode.
func (m DenormMode) String() string {
	switch m {
	case DenormNoC:
		return "PJ, No C"
	case DenormIntC:
		return "PJ, Int C"
	default:
		return "PJ, Max C"
	}
}

// strColumn is a column of raw strings, used only by DenormNoC: predicate
// application must compare full strings per row, which is the cost the
// paper measures ("predicate application is performed on the actual string
// attribute in the fact table").
type strColumn struct {
	vals  []string
	bytes int64
}

func newStrColumn(vals []string) *strColumn {
	c := &strColumn{vals: vals}
	for _, v := range vals {
		c.bytes += int64(len(v)) + 2
	}
	return c
}

func (c *strColumn) filter(match func(string) bool, st *iosim.Stats) *vector.Positions {
	st.Read(c.bytes)
	bm := bitmap.New(len(c.vals))
	for i, v := range c.vals {
		if match(v) {
			bm.Set(i)
		}
	}
	return vector.NewBitmapPositions(bm)
}

func (c *strColumn) filterAt(match func(string) bool, cand *vector.Positions, st *iosim.Stats) *vector.Positions {
	n := len(c.vals)
	if n > 0 {
		st.Read(c.bytes * int64(cand.Len()) / int64(n))
	}
	bm := bitmap.New(n)
	cand.ForEach(func(p int32) {
		if match(c.vals[p]) {
			bm.Set(int(p))
		}
	})
	return vector.NewBitmapPositions(bm)
}

// DenormDB is the single pre-joined table: for every fact row, the
// dimension attributes the SSBM queries touch are repeated inline, so
// queries run with no joins at all.
type DenormDB struct {
	Mode    DenormMode
	numRows int
	// intCols holds measures, integer date attributes and (for
	// IntC/MaxC) dictionary codes of string attributes.
	intCols map[string]*colstore.Column
	// strCols holds raw string attributes (NoC only).
	strCols map[string]*strColumn
}

// denormStrAttrs lists the inlined string attributes: (column name,
// dimension, dimension column).
var denormStrAttrs = []struct {
	name string
	dim  ssb.Dim
	col  string
}{
	{"c_region", ssb.DimCustomer, "region"},
	{"c_nation", ssb.DimCustomer, "nation"},
	{"c_city", ssb.DimCustomer, "city"},
	{"s_region", ssb.DimSupplier, "region"},
	{"s_nation", ssb.DimSupplier, "nation"},
	{"s_city", ssb.DimSupplier, "city"},
	{"p_mfgr", ssb.DimPart, "mfgr"},
	{"p_category", ssb.DimPart, "category"},
	{"p_brand1", ssb.DimPart, "brand1"},
	{"d_yearmonth", ssb.DimDate, "yearmonth"},
}

// denormIntAttrs lists the inlined integer attributes.
var denormIntAttrs = []struct {
	name string
	col  string
}{
	{"d_year", "year"},
	{"d_yearmonthnum", "yearmonthnum"},
	{"d_weeknuminyear", "weeknuminyear"},
}

// BuildDenorm pre-joins the fact table with all four dimensions (paper
// Section 6.3.3: "the fact table contains all of the values found in the
// dimension table repeated for each fact table record").
func BuildDenorm(d *ssb.Data, mode DenormMode) *DenormDB {
	n := d.NumLineorders()
	db := &DenormDB{
		Mode:    mode,
		numRows: n,
		intCols: map[string]*colstore.Column{},
		strCols: map[string]*strColumn{},
	}
	compressed := mode == DenormMaxC

	dateIdx := d.DateIndex()
	dimRow := func(dim ssb.Dim, i int) int {
		return d.FactDimIndex(dim, i, dateIdx)
	}

	// String attributes.
	for _, a := range denormStrAttrs {
		src := d.DimStrCol(a.dim, a.col)
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			vals[i] = src[dimRow(a.dim, i)]
		}
		if mode == DenormNoC {
			db.strCols[a.name] = newStrColumn(vals)
			continue
		}
		dict := compress.BuildDict(vals)
		db.intCols[a.name] = colstore.NewColumn(a.name, dict.Encode(vals, nil), dict, colstore.Unsorted, compressed)
	}
	// Integer date attributes.
	for _, a := range denormIntAttrs {
		src := d.DimIntCol(ssb.DimDate, a.col)
		vals := make([]int32, n)
		for i := 0; i < n; i++ {
			vals[i] = src[dimRow(ssb.DimDate, i)]
		}
		db.intCols[a.name] = colstore.NewColumn(a.name, vals, nil, colstore.Unsorted, compressed)
	}
	// Measures. The fact sort order is preserved, so orderdate-adjacent
	// attributes stay compressible under MaxC.
	for _, name := range ssb.MeasureCols {
		db.intCols[name] = colstore.NewColumn(name, d.Line.MustIntCol(name), nil, factSort[name], compressed)
	}
	return db
}

// Bytes returns the table's storage footprint, for the Figure 8 size
// discussion.
func (db *DenormDB) Bytes() int64 {
	var b int64
	for _, c := range db.intCols {
		b += c.CompressedBytes()
	}
	for _, c := range db.strCols {
		b += c.bytes
	}
	return b
}

// denormColName maps a dimension filter or group column to its inlined
// column name.
func denormColName(dim ssb.Dim, col string) string {
	switch dim {
	case ssb.DimCustomer:
		return "c_" + col
	case ssb.DimSupplier:
		return "s_" + col
	case ssb.DimPart:
		return "p_" + col
	default:
		return "d_" + col
	}
}

// Supports reports whether every dimension attribute the query touches is
// materialized in the denormalized schema (ad-hoc plans may reference
// attributes the pre-join did not include).
func (db *DenormDB) Supports(q *ssb.Query) bool {
	has := func(dim ssb.Dim, col string) bool {
		name := denormColName(dim, col)
		if _, ok := db.intCols[name]; ok {
			return true
		}
		_, ok := db.strCols[name]
		return ok
	}
	for _, f := range q.DimFilters {
		if !has(f.Dim, f.Col) {
			return false
		}
	}
	for _, g := range q.GroupBy {
		if !has(g.Dim, g.Col) {
			return false
		}
	}
	// Measure columns: only the five SSBM measures are inlined.
	for _, f := range q.FactFilters {
		if _, ok := db.intCols[f.Col]; !ok {
			return false
		}
	}
	for _, s := range q.AggSpecs() {
		for _, c := range s.Expr.Columns() {
			if _, ok := db.intCols[c]; !ok {
				return false
			}
		}
	}
	return true
}

// Run executes an SSBM query against the denormalized table: every
// dimension predicate applies directly to an inlined fact column (twice as
// wide scans, no joins), and group-by attributes are read from the fact
// table as well.
func (db *DenormDB) Run(q *ssb.Query, st *iosim.Stats) *ssb.Result {
	var pos *vector.Positions
	apply := func(f func(cand *vector.Positions) *vector.Positions) {
		if pos != nil && pos.Len() == 0 {
			return
		}
		pos = f(pos)
	}

	// Fact measure filters first (they are the cheapest columns).
	for _, f := range q.FactFilters {
		pred := f.Pred
		col := db.intCols[f.Col]
		apply(func(cand *vector.Positions) *vector.Positions {
			if cand == nil {
				return col.Filter(pred, st)
			}
			return col.FilterAt(pred, cand, st)
		})
	}
	// Dimension predicates, each applied in full against its inlined
	// column (no per-dimension summarization — the paper's stated
	// disadvantage of denormalization for double-predicate queries).
	for _, f := range q.DimFilters {
		name := denormColName(f.Dim, f.Col)
		if sc, ok := db.strCols[name]; ok {
			match := f.MatchStr
			apply(func(cand *vector.Positions) *vector.Positions {
				if cand == nil {
					return sc.filter(match, st)
				}
				return sc.filterAt(match, cand, st)
			})
			continue
		}
		col := db.intCols[name]
		var pred compress.Pred
		if f.IsInt {
			pred = f.IntPred()
		} else {
			pred = col.Dict.EncodePred(f.Op, f.StrA, f.StrB, f.StrSet)
		}
		apply(func(cand *vector.Positions) *vector.Positions {
			if cand == nil {
				return col.Filter(pred, st)
			}
			return col.FilterAt(pred, cand, st)
		})
	}
	if pos == nil {
		pos = vector.NewRangePositions(0, int32(db.numRows))
	}
	if pos.Len() == 0 {
		return emptyResult(q)
	}

	// Aggregate inputs: evaluate every aggregate expression at the final
	// positions.
	specs := q.AggSpecs()
	n := pos.Len()
	values := evalAggValues(specs, n, func(name string) []int32 {
		return db.intCols[name].Gather(pos, nil, st)
	})
	if len(q.GroupBy) == 0 {
		cells := make([]int64, len(specs))
		ssb.InitCells(specs, cells)
		for k, s := range specs {
			if values[k] == nil { // COUNT: one per row
				cells[k] += int64(n)
				continue
			}
			for _, v := range values[k] {
				cells[k] = s.Combine(cells[k], v)
			}
		}
		return ssb.NewResult(q.ID, []ssb.ResultRow{ssb.MakeRow(nil, ssb.FinalizeCells(specs, cells, int64(n)))})
	}

	// Group keys come straight from the inlined columns.
	groupKeys := make([][]string, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		name := denormColName(g.Dim, g.Col)
		keys := make([]string, 0, n)
		if sc, ok := db.strCols[name]; ok {
			if db.numRows > 0 {
				st.Read(sc.bytes * int64(pos.Len()) / int64(db.numRows))
			}
			pos.ForEach(func(p int32) { keys = append(keys, sc.vals[p]) })
		} else {
			col := db.intCols[name]
			vals := col.Gather(pos, nil, st)
			for _, v := range vals {
				if col.Dict != nil {
					keys = append(keys, col.Dict.Value(v))
				} else {
					keys = append(keys, strconv.Itoa(int(v)))
				}
			}
		}
		groupKeys[gi] = keys
	}
	type cell struct {
		keys  []string
		cells []int64
	}
	m := map[string]*cell{}
	for r := 0; r < n; r++ {
		ck := ""
		for gi := range groupKeys {
			if gi > 0 {
				ck += "\x00"
			}
			ck += groupKeys[gi][r]
		}
		c, ok := m[ck]
		if !ok {
			keys := make([]string, len(groupKeys))
			for gi := range groupKeys {
				keys[gi] = groupKeys[gi][r]
			}
			c = &cell{keys: keys, cells: make([]int64, len(specs))}
			ssb.InitCells(specs, c.cells)
			m[ck] = c
		}
		for k, s := range specs {
			var v int64
			if values[k] != nil {
				v = values[k][r]
			}
			c.cells[k] = s.Combine(c.cells[k], v)
		}
	}
	rows := make([]ssb.ResultRow, 0, len(m))
	for _, c := range m {
		rows = append(rows, ssb.MakeRow(c.keys, c.cells))
	}
	return ssb.NewResult(q.ID, rows)
}

// evalAggValues gathers the distinct aggregate input columns through the
// caller's gather function and evaluates every aggregate expression into
// one int64 column per spec. COUNT specs get a nil column — Combine counts
// rows without reading an input — so accumulation loops must treat nil as
// "any value".
func evalAggValues(specs []ssb.AggSpec, n int, gather func(name string) []int32) [][]int64 {
	colNames, ia, ib := ssb.AggInputs(specs)
	measures := make([][]int32, len(colNames))
	for i, name := range colNames {
		measures[i] = gather(name)
	}
	values := make([][]int64, len(specs))
	for k, s := range specs {
		if s.Func == ssb.FuncCount {
			continue
		}
		v := make([]int64, n)
		a := measures[ia[k]]
		switch s.Expr.Op {
		case '*':
			for i, b := range measures[ib[k]][:n] {
				v[i] = int64(a[i]) * int64(b)
			}
		case '-':
			for i, b := range measures[ib[k]][:n] {
				v[i] = int64(a[i]) - int64(b)
			}
		default:
			for i := range v {
				v[i] = int64(a[i])
			}
		}
		values[k] = v
	}
	return values
}

// emptyResult matches the reference semantics: aggregates over an empty
// input render as a single all-zero row for ungrouped queries and no rows
// for grouped ones.
func emptyResult(q *ssb.Query) *ssb.Result {
	if len(q.GroupBy) == 0 {
		return ssb.NewResult(q.ID, []ssb.ResultRow{ssb.MakeRow(nil, make([]int64, len(q.AggSpecs())))})
	}
	return ssb.NewResult(q.ID, nil)
}
