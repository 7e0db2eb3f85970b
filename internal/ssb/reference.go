package ssb

import (
	"fmt"
	"strconv"
)

// Reference executes a query by brute force directly over the generated
// arrays, with no storage engine, no compression and no clever joins. It is
// the correctness oracle every engine configuration is tested against.
func Reference(d *Data, q *Query) *Result {
	// Per-dimension pass vectors (nil = no filter on that dimension).
	pass := map[Dim][]bool{}
	for _, dim := range []Dim{DimCustomer, DimSupplier, DimPart, DimDate} {
		var filters []DimFilter
		for _, f := range q.DimFilters {
			if f.Dim == dim {
				filters = append(filters, f)
			}
		}
		if len(filters) == 0 {
			continue
		}
		n := d.DimRows(dim)
		p := make([]bool, n)
		for i := 0; i < n; i++ {
			ok := true
			for _, f := range filters {
				if f.IsInt {
					if !f.IntPred().Match(d.DimInt(dim, f.Col, i)) {
						ok = false
						break
					}
				} else if !f.MatchStr(d.DimStr(dim, f.Col, i)) {
					ok = false
					break
				}
			}
			p[i] = ok
		}
		pass[dim] = p
	}

	dateIdx := d.DateIndex()

	lo := &d.Line
	n := len(lo.OrderKey)
	specs := q.AggSpecs()
	aggColNames, ia, ib := AggInputs(specs)
	aggCols := make([][]int32, len(aggColNames))
	for i, name := range aggColNames {
		aggCols[i] = lo.MustIntCol(name)
	}
	factCols := make([][]int32, len(q.FactFilters))
	for i, f := range q.FactFilters {
		factCols[i] = lo.MustIntCol(f.Col)
	}

	type cell struct {
		keys  []string
		cells []int64
	}
	groups := map[string]*cell{}
	total := make([]int64, len(specs))
	InitCells(specs, total)
	var totalRows int64
	hasGroups := len(q.GroupBy) > 0

	for i := 0; i < n; i++ {
		ok := true
		for fi, f := range q.FactFilters {
			if !f.Pred.Match(factCols[fi][i]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for dim, p := range pass {
			if !p[d.FactDimIndex(dim, i, dateIdx)] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cells := total
		if hasGroups {
			keys := make([]string, len(q.GroupBy))
			for k, g := range q.GroupBy {
				di := d.FactDimIndex(g.Dim, i, dateIdx)
				keys[k] = d.DimKeyString(g.Dim, g.Col, di)
			}
			ck := compositeKey(keys)
			row, found := groups[ck]
			if !found {
				row = &cell{keys: keys, cells: make([]int64, len(specs))}
				InitCells(specs, row.cells)
				groups[ck] = row
			}
			cells = row.cells
		}
		totalRows++
		for k, s := range specs {
			var v int64
			if s.Func != FuncCount {
				var a, b int32
				a = aggCols[ia[k]][i]
				if ib[k] >= 0 {
					b = aggCols[ib[k]][i]
				}
				v = s.Expr.Eval(a, b)
			}
			cells[k] = s.Combine(cells[k], v)
		}
	}

	if !hasGroups {
		return NewResult(q.ID, []ResultRow{MakeRow(nil, FinalizeCells(specs, total, totalRows))})
	}
	rows := make([]ResultRow, 0, len(groups))
	for _, r := range groups {
		rows = append(rows, MakeRow(r.keys, r.cells))
	}
	return NewResult(q.ID, rows)
}

// compositeKey joins group keys with an unlikely separator.
func compositeKey(keys []string) string {
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += "\x00"
		}
		s += k
	}
	return s
}

// DateIndex returns a map from datekey (yyyymmdd) to row index in the DATE
// dimension.
func (d *Data) DateIndex() map[int32]int32 {
	m := make(map[int32]int32, len(d.Date.Key))
	for i, k := range d.Date.Key {
		m[k] = int32(i)
	}
	return m
}

// FactDimIndex resolves the dimension row index referenced by fact row i.
// Customer, supplier and part keys are dense 1..N, so index = key-1; dates
// go through the datekey map.
func (d *Data) FactDimIndex(dim Dim, i int, dateIdx map[int32]int32) int {
	switch dim {
	case DimCustomer:
		return int(d.Line.CustKey[i]) - 1
	case DimSupplier:
		return int(d.Line.SuppKey[i]) - 1
	case DimPart:
		return int(d.Line.PartKey[i]) - 1
	default:
		return int(dateIdx[d.Line.OrderDate[i]])
	}
}

// DimRows returns the cardinality of a dimension.
func (d *Data) DimRows(dim Dim) int { return dim.Cols()[0].Len(d) }

// DimStr returns the string attribute col of dimension row i.
func (d *Data) DimStr(dim Dim, col string, i int) string {
	s := d.DimStrCol(dim, col)
	if s == nil {
		panic(fmt.Sprintf("ssb: %v has no string column %q", dim, col))
	}
	return s[i]
}

// DimInt returns the integer attribute col of dimension row i.
func (d *Data) DimInt(dim Dim, col string, i int) int32 {
	s := d.DimIntCol(dim, col)
	if s == nil {
		panic(fmt.Sprintf("ssb: %v has no int column %q", dim, col))
	}
	return s[i]
}

// DimKeyString renders attribute col of dimension row i as a group key.
func (d *Data) DimKeyString(dim Dim, col string, i int) string {
	if s := d.DimStrCol(dim, col); s != nil {
		return s[i]
	}
	return strconv.Itoa(int(d.DimInt(dim, col, i)))
}

// DimStrCol returns the named string column of a dimension, or nil.
func (d *Data) DimStrCol(dim Dim, col string) []string {
	if c, ok := FindCol(dim.Cols(), col); ok && !c.IsInt() {
		return *c.Str(d)
	}
	return nil
}

// DimIntCol returns the named integer column of a dimension, or nil.
func (d *Data) DimIntCol(dim Dim, col string) []int32 {
	if c, ok := FindCol(dim.Cols(), col); ok && c.IsInt() {
		return *c.Int(d)
	}
	return nil
}

// Selectivity measures the actual LINEORDER selectivity of q over d using
// the reference evaluation path (count of qualifying fact rows / total).
func Selectivity(d *Data, q *Query) float64 {
	pass := map[Dim][]bool{}
	for _, dim := range []Dim{DimCustomer, DimSupplier, DimPart, DimDate} {
		var filters []DimFilter
		for _, f := range q.DimFilters {
			if f.Dim == dim {
				filters = append(filters, f)
			}
		}
		if len(filters) == 0 {
			continue
		}
		n := d.DimRows(dim)
		p := make([]bool, n)
		for i := 0; i < n; i++ {
			ok := true
			for _, f := range filters {
				if f.IsInt {
					if !f.IntPred().Match(d.DimInt(dim, f.Col, i)) {
						ok = false
						break
					}
				} else if !f.MatchStr(d.DimStr(dim, f.Col, i)) {
					ok = false
					break
				}
			}
			p[i] = ok
		}
		pass[dim] = p
	}
	dateIdx := d.DateIndex()
	match := 0
	n := d.NumLineorders()
	factCols := make([][]int32, len(q.FactFilters))
	for i, f := range q.FactFilters {
		factCols[i] = d.Line.MustIntCol(f.Col)
	}
	for i := 0; i < n; i++ {
		ok := true
		for fi, f := range q.FactFilters {
			if !f.Pred.Match(factCols[fi][i]) {
				ok = false
				break
			}
		}
		for dim, p := range pass {
			if !ok {
				break
			}
			if !p[d.FactDimIndex(dim, i, dateIdx)] {
				ok = false
			}
		}
		if ok {
			match++
		}
	}
	return float64(match) / float64(n)
}
