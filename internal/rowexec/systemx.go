// Package rowexec implements "System X", the commercial row-oriented DBMS
// of the paper, as a Volcano-style executor over rowstore heap tables. It
// provides the five physical designs of Section 4 / Figure 6:
//
//	Traditional        one heap table per relation, partitioned on
//	                   orderdate year, hash joins ordered by selectivity
//	TraditionalBitmap  traditional biased to bitmap plans: predicate
//	                   bitmaps built from indexes, page-skipping heap fetch
//	MaterializedViews  per-flight minimal-projection MVs (no pre-joins)
//	VerticalPartition  one (position, value) two-column table per fact
//	                   column, stitched back together with hash joins
//	AllIndexes         index-only plans: full index scans joined on
//	                   record-id, never touching the heap
package rowexec

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/iosim"
	"repro/internal/rowstore"
	"repro/internal/ssb"
)

// Design selects a physical design for query execution.
type Design uint8

const (
	// Traditional is the paper's "T".
	Traditional Design = iota
	// TraditionalBitmap is "T(B)".
	TraditionalBitmap
	// MaterializedViews is "MV".
	MaterializedViews
	// VerticalPartitioning is "VP".
	VerticalPartitioning
	// AllIndexes is "AI".
	AllIndexes
)

// String returns the paper's abbreviation.
func (d Design) String() string {
	switch d {
	case Traditional:
		return "T"
	case TraditionalBitmap:
		return "T(B)"
	case MaterializedViews:
		return "MV"
	case VerticalPartitioning:
		return "VP"
	default:
		return "AI"
	}
}

// Designs lists all five designs in Figure 6 order.
func Designs() []Design {
	return []Design{Traditional, TraditionalBitmap, MaterializedViews, VerticalPartitioning, AllIndexes}
}

// queryFactCols is the set of integer fact columns any SSBM query touches;
// these get B+Tree indexes in the AllIndexes design and vertical tables in
// the VerticalPartitioning design.
var queryFactCols = []string{
	"custkey", "partkey", "suppkey", "orderdate",
	"quantity", "extendedprice", "discount", "revenue", "supplycost",
}

// SystemX is the row-store database with every physical design materialized
// side by side.
type SystemX struct {
	// Fact is the base LINEORDER heap, stored in orderdate order so that
	// orderdate-year partitions are contiguous rid ranges.
	Fact *rowstore.Table
	// YearRange maps orderdate year -> [startRid, endRid) within Fact;
	// partition pruning scans only qualifying ranges.
	YearRange map[int32][2]int32
	// Dims holds the four dimension heap tables.
	Dims map[ssb.Dim]*rowstore.Table
	// MVs holds the per-flight materialized views (minimal projections
	// of Fact, same row order, hence same partitioning).
	MVs map[int]*rowstore.Table
	// VP holds the vertical two-column tables, one per fact column used
	// by the workload.
	VP map[string]*rowstore.VerticalTable
	// FactIdx holds unclustered B+Trees over fact columns (AllIndexes
	// and the bitmap design's join-index probes).
	FactIdx map[string]*btree.Tree[int32]
	// DiscountBM and QuantityBM are bitmap indexes over the two fact
	// measure columns flight 1 restricts.
	DiscountBM *rowstore.BitmapIndex
	QuantityBM *rowstore.BitmapIndex

	// WorkMemBytes is the memory available to joins before they spill
	// (the paper's System X configuration: "a 1.5 GB maximum memory for
	// sorts, joins, intermediate results"). Hash builds larger than this
	// are charged a GRACE-style partition spill: the build side is
	// written out and read back once.
	WorkMemBytes int64

	// Lazily built dimension attribute indexes for index-only plans.
	dimIntIdx map[ssb.Dim]map[string]*rowstore.IntIndex
	dimStrIdx map[ssb.Dim]map[string]*rowstore.StrIndex

	data *ssb.Data
}

// BuildOptions selects which (memory-hungry) auxiliary designs to
// materialize.
type BuildOptions struct {
	MVs     bool
	VP      bool
	Indexes bool
	Bitmaps bool
}

// AllDesigns enables everything Figure 6 needs.
var AllDesigns = BuildOptions{MVs: true, VP: true, Indexes: true, Bitmaps: true}

// Build loads generated SSBM data into the row store.
func Build(d *ssb.Data, opts BuildOptions) *SystemX {
	sx := &SystemX{
		WorkMemBytes: 1536 << 20,
		YearRange:    map[int32][2]int32{},
		Dims:         map[ssb.Dim]*rowstore.Table{},
		MVs:          map[int]*rowstore.Table{},
		VP:           map[string]*rowstore.VerticalTable{},
		FactIdx:      map[string]*btree.Tree[int32]{},
		data:         d,
	}

	// Fact heap (input is orderdate-sorted, so years are contiguous).
	sx.Fact = rowstore.NewTable("lineorder", tableSchema(ssb.FactCols))
	lo := &d.Line
	factRow := tableRow(ssb.FactCols, lo)
	n := d.NumLineorders()
	var curYear int32 = -1
	for i := 0; i < n; i++ {
		year := lo.OrderDate[i] / 10000
		if year != curYear {
			if curYear >= 0 {
				r := sx.YearRange[curYear]
				r[1] = int32(i)
				sx.YearRange[curYear] = r
			}
			sx.YearRange[year] = [2]int32{int32(i), int32(n)}
			curYear = year
		}
		sx.Fact.Append(factRow(i))
	}
	if curYear >= 0 {
		r := sx.YearRange[curYear]
		r[1] = int32(n)
		sx.YearRange[curYear] = r
	}

	for _, dim := range []ssb.Dim{ssb.DimCustomer, ssb.DimSupplier, ssb.DimPart, ssb.DimDate} {
		t := rowstore.NewTable(dim.String(), tableSchema(dim.Cols()))
		row := tableRow(dim.Cols(), d)
		for i, n := 0, d.DimRows(dim); i < n; i++ {
			t.Append(row(i))
		}
		sx.Dims[dim] = t
	}

	if opts.MVs {
		for flight := 1; flight <= 4; flight++ {
			cols := ssb.FlightMVColumns(flight)
			sx.MVs[flight] = rowstore.BuildMV(sx.Fact, fmt.Sprintf("mv_flight%d", flight), cols)
		}
	}
	if opts.VP {
		full := rowstore.BuildVertical(sx.Fact)
		for _, c := range queryFactCols {
			sx.VP[c] = full[c]
		}
	}
	if opts.Indexes {
		// Index-only plans never touch the heap, so the indexes are built
		// straight from the column values with rid = row ordinal.
		for _, c := range queryFactCols {
			sx.FactIdx[c] = buildArrayIndex(lo.MustIntCol(c))
		}
	}
	if opts.Bitmaps {
		sx.DiscountBM = rowstore.BuildBitmapIndex(sx.Fact, "discount")
		sx.QuantityBM = rowstore.BuildBitmapIndex(sx.Fact, "quantity")
	}
	return sx
}

// tableSchema is the heap schema of a table: its columns in specification
// order.
func tableSchema[T any](cols []ssb.Col[T]) *rowstore.Schema {
	names := make([]string, len(cols))
	types := make([]rowstore.ColType, len(cols))
	for j, c := range cols {
		names[j], types[j] = c.Name, rowstore.TStr
		if c.IsInt() {
			types[j] = rowstore.TInt
		}
	}
	return rowstore.NewSchema(names, types)
}

// tableRow binds cols to their values in t and returns a function building
// tuple i in tableSchema's layout. The tuple is reused across calls, which
// suits Table.Append: it encodes the tuple and keeps no reference to it.
func tableRow[T any](cols []ssb.Col[T], t *T) func(i int) rowstore.Row {
	ints := make([][]int32, len(cols))
	strs := make([][]string, len(cols))
	for j, c := range cols {
		if c.IsInt() {
			ints[j] = *c.Int(t)
		} else {
			strs[j] = *c.Str(t)
		}
	}
	row := make(rowstore.Row, len(cols))
	return func(i int) rowstore.Row {
		for j, c := range cols {
			if c.IsInt() {
				row[j].I = ints[j][i]
			} else {
				row[j].S = strs[j][i]
			}
		}
		return row
	}
}

// buildArrayIndex bulk-loads a B+Tree over (value, rid) pairs.
func buildArrayIndex(vals []int32) *btree.Tree[int32] {
	entries := make([]btree.Entry[int32], len(vals))
	for i, v := range vals {
		entries[i] = btree.Entry[int32]{Key: v, RID: int32(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key != entries[j].Key {
			return entries[i].Key < entries[j].Key
		}
		return entries[i].RID < entries[j].RID
	})
	return btree.Build(entries, 4)
}

// chargeHashSpill charges the I/O of spilling a hash-join build side that
// exceeds work memory: the build is partitioned to disk and read back once.
func (sx *SystemX) chargeHashSpill(buildBytes int64, st *iosim.Stats) {
	if buildBytes > sx.WorkMemBytes {
		st.Write(buildBytes)
		st.Read(buildBytes)
	}
}

// hashEntryBytes estimates the in-memory footprint of one rid-keyed hash
// entry holding k int32 values (Go map overhead included).
func hashEntryBytes(k int) int64 { return int64(4*k) + 48 }

// dimKeySet scans a dimension heap table, applies the query's filters on
// that dimension, and returns the set of qualifying primary keys (join
// phase 1, row-store style).
func (sx *SystemX) dimKeySet(dim ssb.Dim, filters []ssb.DimFilter, st *iosim.Stats) map[int32]struct{} {
	t := sx.Dims[dim]
	keyIdx := t.Schema.MustColIndex(dim.KeyCol())
	type colFilter struct {
		idx   int
		f     ssb.DimFilter
		isInt bool
	}
	var cfs []colFilter
	for _, f := range filters {
		cfs = append(cfs, colFilter{idx: t.Schema.MustColIndex(f.Col), f: f, isInt: f.IsInt})
	}
	set := map[int32]struct{}{}
	t.Scan(st, func(_ int32, row rowstore.Row) bool {
		for _, cf := range cfs {
			if cf.isInt {
				if !cf.f.IntPred().Match(row[cf.idx].I) {
					return true
				}
			} else if !cf.f.MatchStr(row[cf.idx].S) {
				return true
			}
		}
		set[row[keyIdx].I] = struct{}{}
		return true
	})
	return set
}

// dimAttrMap scans a dimension and returns primary key -> rendered group
// attribute (the build side of the group-by join).
func (sx *SystemX) dimAttrMap(dim ssb.Dim, col string, st *iosim.Stats) map[int32]string {
	t := sx.Dims[dim]
	keyIdx := t.Schema.MustColIndex(dim.KeyCol())
	attrIdx := t.Schema.MustColIndex(col)
	isInt := t.Schema.Types[attrIdx] == rowstore.TInt
	m := make(map[int32]string, t.NumRows())
	t.Scan(st, func(_ int32, row rowstore.Row) bool {
		if isInt {
			m[row[keyIdx].I] = fmt.Sprintf("%d", row[attrIdx].I)
		} else {
			m[row[keyIdx].I] = row[attrIdx].S
		}
		return true
	})
	return m
}

// pruneYears returns the fact rid ranges to scan given the query's date
// filters: partition pruning on orderdate year. When prune is false (the
// paper's "without partitioning" ablation) or the query has no date filter,
// the whole table is one range.
func (sx *SystemX) pruneYears(q *ssb.Query, prune bool, st *iosim.Stats) [][2]int32 {
	if !prune {
		return [][2]int32{{0, int32(sx.Fact.NumRows())}}
	}
	var dateFilters []ssb.DimFilter
	for _, f := range q.DimFilters {
		if f.Dim == ssb.DimDate {
			dateFilters = append(dateFilters, f)
		}
	}
	if len(dateFilters) == 0 {
		return [][2]int32{{0, int32(sx.Fact.NumRows())}}
	}
	// Qualifying years = years of qualifying date-dimension rows.
	keys := sx.dimKeySet(ssb.DimDate, dateFilters, st)
	years := map[int32]struct{}{}
	for k := range keys {
		years[k/10000] = struct{}{}
	}
	var sortedYears []int32
	for y := range years {
		sortedYears = append(sortedYears, y)
	}
	sort.Slice(sortedYears, func(i, j int) bool { return sortedYears[i] < sortedYears[j] })
	var out [][2]int32
	for _, y := range sortedYears {
		if r, ok := sx.YearRange[y]; ok {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return [][2]int32{{0, 0}}
	}
	return out
}
