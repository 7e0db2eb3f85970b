package exec

import (
	"strconv"
	"strings"

	"repro/internal/colstore"
	"repro/internal/iosim"
	"repro/internal/ssb"
)

// RowMV is a row-oriented materialized view stored inside the column store:
// one blob "column" whose values are whole tuples rendered as strings,
// exactly the "CS (Row-MV)" configuration from Section 6.1 ("tables that
// have a single column of type string. The values in this column are entire
// tuples").
type RowMV struct {
	Flight int
	Cols   []string
	colIdx map[string]int
	Blob   *colstore.BlobTable
}

// BuildRowMV materializes the optimal per-flight view as pipe-delimited
// string tuples.
func (db *DB) BuildRowMV(flight int) *RowMV {
	cols := ssb.FlightMVColumns(flight)
	mv := &RowMV{Flight: flight, Cols: cols, colIdx: map[string]int{}}
	for i, c := range cols {
		mv.colIdx[c] = i
	}
	n := db.numRows
	decoded := make([][]int32, len(cols))
	var st iosim.Stats // construction is not query I/O
	for i, c := range cols {
		decoded[i] = db.Fact.MustColumn(c).DecodeAll(nil, &st)
	}
	rows := make([][]byte, n)
	var sb strings.Builder
	for r := 0; r < n; r++ {
		sb.Reset()
		for c := range cols {
			if c > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(strconv.Itoa(int(decoded[c][r])))
		}
		rows[r] = []byte(sb.String())
	}
	mv.Blob = colstore.NewBlobTable("rowmv_flight"+strconv.Itoa(flight), rows)
	return mv
}

// RunRowMV executes q over the row-oriented MV: scan the blob column,
// reconstruct each tuple by parsing its string form, then process rows just
// like a row store ("after it performs this tuple reconstruction, it
// proceeds to execute the rest of the query plan using standard row-store
// operators").
func (db *DB) RunRowMV(q *ssb.Query, mv *RowMV, st *iosim.Stats) *ssb.Result {
	if q.Flight != mv.Flight {
		panic("exec: query flight does not match RowMV flight")
	}
	// Row-store-style dimension structures keyed by FK value.
	var passSets []map[int32]struct{}
	var passCols []int
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	var dimOrder []ssb.Dim
	for _, f := range q.DimFilters {
		if _, ok := byDim[f.Dim]; !ok {
			dimOrder = append(dimOrder, f.Dim)
		}
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	for _, dim := range dimOrder {
		dimTab := db.Dims[dim]
		pos := map[int32]struct{}{}
		for fi, f := range byDim[dim] {
			col := dimTab.MustColumn(f.Col)
			pred := dimFilterPred(col, f)
			vals := col.DecodeAll(nil, st)
			if fi == 0 {
				for i, v := range vals {
					if pred.Match(v) {
						pos[int32(i)] = struct{}{}
					}
				}
				continue
			}
			for p := range pos {
				if !pred.Match(vals[p]) {
					delete(pos, p)
				}
			}
		}
		set := make(map[int32]struct{}, len(pos))
		if dim == ssb.DimDate {
			keys := dimTab.MustColumn("datekey").DecodeAll(nil, st)
			for p := range pos {
				set[keys[p]] = struct{}{}
			}
		} else {
			for p := range pos {
				set[p] = struct{}{}
			}
		}
		passSets = append(passSets, set)
		passCols = append(passCols, mv.colIdx[dim.FactFK()])
	}

	type factPred struct {
		col  int
		pred func(int32) bool
	}
	var factPreds []factPred
	for _, f := range q.FactFilters {
		factPreds = append(factPreds, factPred{col: mv.colIdx[f.Col], pred: f.Pred.Match})
	}

	hashCfg := Config{Compression: db.Compressed}
	exs := make([]*groupExtractor, len(q.GroupBy))
	exCols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		exs[i] = db.newGroupExtractor(g)
		exs[i].load(db, hashCfg, st)
		exCols[i] = mv.colIdx[g.Dim.FactFK()]
	}
	sh := newAggShape(q.AggSpecs(), exs)
	agg := newAggregator(sh)
	// Tuple positions of the aggregate input columns; in is the per-row
	// operand vector handed to the aggregator.
	inCols := make([]int, len(sh.inputs))
	for i, name := range sh.inputs {
		inCols[i] = mv.colIdx[name]
	}
	in := make([]int32, len(inCols))

	st.Read(mv.Blob.Bytes())
	tup := make([]int32, len(mv.Cols))
rowLoop:
	for _, raw := range mv.Blob.Rows {
		// Tuple reconstruction: parse the string form field by field.
		parseTuple(raw, tup)
		for _, fp := range factPreds {
			if !fp.pred(tup[fp.col]) {
				continue rowLoop
			}
		}
		for i, set := range passSets {
			if _, ok := set[tup[passCols[i]]]; !ok {
				continue rowLoop
			}
		}
		gi := int64(0)
		for i := range exs {
			gi += int64(exs[i].viaHash[tup[exCols[i]]]) * sh.strides[i]
		}
		for i, c := range inCols {
			in[i] = tup[c]
		}
		agg.addRow(gi, in)
	}
	return agg.render(q.ID)
}

// parseTuple decodes a pipe-delimited tuple into dst.
func parseTuple(raw []byte, dst []int32) {
	field := 0
	val := int32(0)
	neg := false
	for _, b := range raw {
		switch {
		case b == '|':
			if neg {
				val = -val
			}
			dst[field] = val
			field++
			val, neg = 0, false
		case b == '-':
			neg = true
		default:
			val = val*10 + int32(b-'0')
		}
	}
	if neg {
		val = -val
	}
	dst[field] = val
}
