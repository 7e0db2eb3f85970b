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
// operators"). Like RunCtx, it refuses a GROUP BY too wide for the
// composite group index before reading anything.
func (db *DB) RunRowMV(q *ssb.Query, mv *RowMV, st *iosim.Stats) (*ssb.Result, error) {
	if q.Flight != mv.Flight {
		panic("exec: query flight does not match RowMV flight")
	}
	if _, err := db.groupSpace(q); err != nil {
		return nil, err
	}
	// Row-store-style plan over the MV's tuple layout; the dimension
	// columns are decoded in full, as a row store would scan them.
	rp := db.compileRowPlan(q, mv.colIdx, false, st)

	st.Read(mv.Blob.Bytes())
	tup := make([]int32, len(mv.Cols))
	for _, raw := range mv.Blob.Rows {
		// Tuple reconstruction: parse the string form field by field.
		parseTuple(raw, tup)
		rp.eval(tup)
	}
	return rp.agg.render(q.ID), nil
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
