package exec

import (
	"slices"
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

// readAt charges reading the values at pos: the pages they fall on, at the
// column's average bytes per value, like any other column's positional read.
func (c *strColumn) readAt(pos *vector.Positions, st *iosim.Stats) {
	colstore.ChargePositions(pos, len(c.vals), c.bytes, st)
}

func (c *strColumn) filterAt(match func(string) bool, cand *vector.Positions, st *iosim.Stats) *vector.Positions {
	n := len(c.vals)
	c.readAt(cand, st)
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
	out := ssb.NewAggregator(q)
	if pos.Len() == 0 {
		return out.Result()
	}

	// Gather the aggregate inputs, then the group keys, at the final
	// positions; both come straight from the inlined columns.
	specs := q.AggSpecs()
	cols, _, _ := ssb.AggInputs(specs)
	inputs := make([][]int32, len(cols))
	for i, name := range cols {
		inputs[i] = db.intCols[name].Gather(pos, nil, st)
	}
	groupKeys := make([][]string, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		name := denormColName(g.Dim, g.Col)
		keys := make([]string, 0, pos.Len())
		if sc, ok := db.strCols[name]; ok {
			sc.readAt(pos, st)
			pos.ForEach(func(p int32) { keys = append(keys, sc.vals[p]) })
		} else {
			col := db.intCols[name]
			for _, v := range col.Gather(pos, nil, st) {
				if col.Dict != nil {
					keys = append(keys, col.Dict.Value(v))
				} else {
					keys = append(keys, strconv.Itoa(int(v)))
				}
			}
		}
		groupKeys[gi] = keys
	}

	eval := ssb.NewAggEval(specs, func(c string) int { return slices.Index(cols, c) })
	keys := make([]string, len(groupKeys))
	for r := range pos.Len() {
		for gi := range groupKeys {
			keys[gi] = groupKeys[gi][r]
		}
		out.Add(keys, eval.Eval(func(i int) int32 { return inputs[i][r] }))
	}
	return out.Result()
}
