package rowexec

import (
	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// Iterator is the Volcano interface [Graefe 94]: each Next call produces
// one tuple. The per-call interface dispatch and attribute extraction are
// the row-store overheads Section 5.3 of the paper contrasts with block
// iteration.
type Iterator interface {
	Next() (rowstore.Row, bool)
}

// tableScan streams a set of rid ranges from a heap table.
type tableScan struct {
	t      *rowstore.Table
	ranges [][2]int32
	ri     int
	cur    *rowstore.Iter
	st     *iosim.Stats
}

// newTableScan returns a scan over the given rid ranges of t.
func newTableScan(t *rowstore.Table, ranges [][2]int32, st *iosim.Stats) *tableScan {
	return &tableScan{t: t, ranges: ranges, st: st}
}

// Next implements Iterator.
func (s *tableScan) Next() (rowstore.Row, bool) {
	for {
		if s.cur == nil {
			if s.ri >= len(s.ranges) {
				return nil, false
			}
			r := s.ranges[s.ri]
			s.ri++
			s.cur = s.t.RangeIter(r[0], r[1], s.st)
		}
		if _, row, ok := s.cur.Next(); ok {
			return row, true
		}
		s.cur = nil
	}
}

// filter drops rows failing pred.
type filter struct {
	child Iterator
	pred  func(rowstore.Row) bool
}

// Next implements Iterator.
func (f *filter) Next() (rowstore.Row, bool) {
	for {
		row, ok := f.child.Next()
		if !ok {
			return nil, false
		}
		if f.pred(row) {
			return row, true
		}
	}
}

// hashJoin probes a prebuilt hash table with the child's foreign-key column
// and emits the child row extended with the build side's payload columns
// (an FK->PK join always matches at most one build row). Rows failing the
// probe are dropped — the join doubles as the dimension filter.
type hashJoin struct {
	child   Iterator
	fkIdx   int
	build   map[int32][]rowstore.Value
	scratch rowstore.Row
}

// newHashJoin builds the operator; build maps dimension key -> payload
// values to append (empty but non-nil slice when the dimension contributes
// no group columns).
func newHashJoin(child Iterator, fkIdx int, build map[int32][]rowstore.Value) *hashJoin {
	return &hashJoin{child: child, fkIdx: fkIdx, build: build}
}

// Next implements Iterator.
func (j *hashJoin) Next() (rowstore.Row, bool) {
	for {
		row, ok := j.child.Next()
		if !ok {
			return nil, false
		}
		payload, hit := j.build[row[j.fkIdx].I]
		if !hit {
			continue
		}
		j.scratch = append(append(j.scratch[:0], row...), payload...)
		return j.scratch, true
	}
}

// hashAgg drains the child, grouping on the given row positions (string
// values produced by joins, or integer columns rendered in decimal).
func hashAgg(child Iterator, q *ssb.Query, groupIdx []int, agg *ssb.AggEval) *ssb.Result {
	out := ssb.NewAggregator(q)
	keys := make([]string, len(groupIdx))
	for {
		row, ok := child.Next()
		if !ok {
			break
		}
		for i, gi := range groupIdx {
			keys[i] = row[gi].S
		}
		out.Add(keys, agg.Eval(func(i int) int32 { return row[i].I }))
	}
	return out.Result()
}
