package rowexec

import (
	"encoding/binary"
	"sort"

	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// This file implements the experiment the paper's conclusion asks for: "A
// successful column-oriented simulation will require some important system
// improvements, such as virtual record-ids, reduced tuple overhead, fast
// merge joins of sorted data" — the "super tuple" idea of Halverson et al.
// that the paper endorses ("the type of higher-level optimization that this
// paper concludes will be needed to be added to row-stores").
//
// A super-tuple vertical partition stores one fact column as heap tuples of
// superBatch packed values each: the 8-byte tuple header amortizes to
// ~0.002 bytes/value and there is no explicit position column (record-ids
// are virtual: position = batch ordinal * superBatch + offset). Because all
// column tables share the same implicit order, tuple reconstruction is a
// positional merge (a zip), not a hash join.

// superBatch is the number of column values packed into one super tuple,
// sized so one tuple (payload + header + length prefix) fills a 32 KB heap
// page with minimal slack.
const superBatch = (rowstore.PageSize - 16) / 4

// SuperVP is one fact column stored as super tuples.
type SuperVP struct {
	Col   string
	table *rowstore.Table
	n     int
}

// BuildSuperVP packs vals into a super-tuple heap table.
func BuildSuperVP(col string, vals []int32) *SuperVP {
	schema := rowstore.NewSchema([]string{"payload"}, []rowstore.ColType{rowstore.TStr})
	t := rowstore.NewTable("super."+col, schema)
	buf := make([]byte, 0, superBatch*4)
	for off := 0; off < len(vals); off += superBatch {
		end := off + superBatch
		if end > len(vals) {
			end = len(vals)
		}
		buf = buf[:0]
		for _, v := range vals[off:end] {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			buf = append(buf, b[:]...)
		}
		t.Append(rowstore.Row{{S: string(buf)}})
	}
	return &SuperVP{Col: col, table: t, n: len(vals)}
}

// HeapBytes is the on-disk footprint.
func (s *SuperVP) HeapBytes() int64 { return s.table.HeapBytes() }

// superIter is a pull cursor over a super-tuple column: each next() yields
// one decoded batch of values in position order.
type superIter struct {
	it  *rowstore.Iter
	buf []int32
}

// iter opens a cursor, charging heap pages as batches are read.
func (s *SuperVP) iter(st *iosim.Stats) *superIter {
	return &superIter{it: s.table.Iter(st), buf: make([]int32, superBatch)}
}

// next returns the next batch; the slice is reused between calls.
func (it *superIter) next() ([]int32, bool) {
	_, row, ok := it.it.Next()
	if !ok {
		return nil, false
	}
	payload := row[0].S
	n := len(payload) / 4
	for i := 0; i < n; i++ {
		it.buf[i] = int32(binary.LittleEndian.Uint32([]byte(payload[4*i : 4*i+4])))
	}
	return it.buf[:n], true
}

// BuildSuperVPs materializes super-tuple tables for every fact column the
// workload touches (mirrors the VP design's column set).
func BuildSuperVPs(d *ssb.Data) map[string]*SuperVP {
	out := map[string]*SuperVP{}
	for _, c := range queryFactCols {
		out[c] = BuildSuperVP(c, d.Line.MustIntCol(c))
	}
	return out
}

// RunSuperVP executes q over super-tuple vertical partitions: the needed
// columns are zip-scanned in lockstep (positional merge join — no hash
// tables, no explicit record-ids), predicates apply during the merge, and
// group attributes resolve through dimension maps as in the other row-store
// plans.
func (sx *SystemX) RunSuperVP(q *ssb.Query, super map[string]*SuperVP, st *iosim.Stats) *ssb.Result {
	cols := q.NeededFactColumns()

	// Dimension structures, keyed by FK value.
	byDim := map[ssb.Dim][]ssb.DimFilter{}
	for _, f := range q.DimFilters {
		byDim[f.Dim] = append(byDim[f.Dim], f)
	}
	type restrict struct {
		col  int
		keys map[int32]struct{}
	}
	colPos := map[string]int{}
	for i, c := range cols {
		colPos[c] = i
	}
	var restricts []restrict
	for _, dim := range q.DimsUsed() {
		if fs := byDim[dim]; len(fs) > 0 {
			restricts = append(restricts, restrict{
				col:  colPos[dim.FactFK()],
				keys: sx.dimKeySet(dim, fs, st),
			})
		}
	}
	sort.Slice(restricts, func(i, j int) bool { return len(restricts[i].keys) < len(restricts[j].keys) })

	type fp struct {
		col  int
		pred func(int32) bool
	}
	var fps []fp
	for _, f := range q.FactFilters {
		fps = append(fps, fp{col: colPos[f.Col], pred: f.Pred.Match})
	}

	attrMaps := make([]map[int32]string, len(q.GroupBy))
	attrCol := make([]int, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		attrMaps[gi] = sx.dimAttrMap(g.Dim, g.Col, st)
		attrCol[gi] = colPos[g.Dim.FactFK()]
	}
	agg := ssb.NewAggEval(q.AggSpecs(), func(c string) int { return colPos[c] })

	// Zip-scan: pull one batch from every column cursor in lockstep (the
	// positional merge join of the paper's conclusion — virtual
	// record-ids mean batch k of every column covers the same rows).
	iters := make([]*superIter, len(cols))
	for i, c := range cols {
		sv, ok := super[c]
		if !ok {
			panic("rowexec: no super-tuple table for " + c)
		}
		iters[i] = sv.iter(st)
	}
	batches := make([][]int32, len(cols))

	out := ssb.NewAggregator(q)
	keys := make([]string, len(q.GroupBy))
	for {
		n := -1
		for i, it := range iters {
			b, ok := it.next()
			if !ok {
				b = nil
			}
			batches[i] = b
			if b != nil && (n < 0 || len(b) < n) {
				n = len(b)
			}
		}
		if n < 0 {
			break
		}
	rowLoop:
		for r := 0; r < n; r++ {
			for _, p := range fps {
				if !p.pred(batches[p.col][r]) {
					continue rowLoop
				}
			}
			for _, rs := range restricts {
				if _, ok := rs.keys[batches[rs.col][r]]; !ok {
					continue rowLoop
				}
			}
			for gi := range q.GroupBy {
				keys[gi] = attrMaps[gi][batches[attrCol[gi]][r]]
			}
			out.Add(keys, agg.Eval(func(i int) int32 { return batches[i][r] }))
		}
	}
	return out.Result()
}
