package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/segstore"
	"repro/internal/ssb"
)

// DB is a column-store SSBM database: the LINEORDER fact table and the four
// dimension tables, all stored column-wise.
//
// Physical design decisions match Section 5.4.2 of the paper:
//   - Dimension tables are sorted by their attribute hierarchy (customer
//     and supplier by region > nation > city; part by mfgr > category >
//     brand1; date chronologically), so predicates on hierarchy attributes
//     select contiguous position ranges.
//   - Customer, supplier and part keys are reassigned to be the row's
//     position ("dictionary encoding for the purpose of key reassignment"),
//     and fact foreign keys are rewritten accordingly. Date keeps its
//     yyyymmdd key, so date joins need a real lookup (the paper's "a full
//     join must be performed" case) — but chronological sorting still makes
//     year/yearmonth predicates contiguous in key space.
//   - The fact table is sorted by orderdate, secondarily by quantity and
//     discount.
type DB struct {
	Compressed bool
	Fact       *colstore.Table
	Dims       map[ssb.Dim]*colstore.Table

	// dateByKey maps yyyymmdd datekey -> position in the date dimension.
	dateByKey map[int32]int32
	// dateKeys holds the datekeys in storage (chronological) order — the
	// valid orderdate domain insert batches must draw from.
	dateKeys []int32
	// datePosDense is the dense form of dateByKey, anchored at dateKeyMin:
	// datePosDense[k-dateKeyMin] is the position for datekey k, -1 in the
	// yyyymmdd gaps. The fused pipeline resolves date joins with one array
	// index per fact row instead of a map lookup.
	datePosDense []int32
	dateKeyMin   int32
	numRows      int

	// fusedPool recycles fused-scan worker state (selection bitmaps,
	// gather scratch, dense aggregation arrays) across queries; see
	// fused.go. Workers scrub their aggregation cells sparsely before
	// returning, so a pooled worker's arrays are always all-zero. A
	// pointer so the sealed-store copies the tuple mover publishes
	// (ingest.go) share one pool.
	fusedPool *sync.Pool

	// seg is the backing segment store for file-backed DBs (nil for
	// in-memory builds); the tuple mover appends frozen delta blocks to it.
	seg *segstore.Store
	// ckpt is the fact table's checkpoint as the footer recorded it at open
	// (zero for in-memory builds): read-only DBs mask its deletion vector,
	// and EnableDelta starts the write path from it.
	ckpt segstore.Checkpoint
	// ingest is the write half of the WS/RS split (nil for read-only DBs):
	// the delta store, the current sealed snapshot, and the tuple mover.
	// See ingest.go. Atomic so EnableDelta publishes it safely to readers
	// already running, such as a frozen-base check reading Epoch.
	ingest atomic.Pointer[ingestState]
}

// sealedCopy returns a read-only DB over db's dimensions and the given fact
// table: the sealed snapshot the tuple mover publishes. It shares the worker
// pool and store, and has no write half. Copy field by field (the write
// half's atomic must not be copied): a new DB field belongs here.
func (db *DB) sealedCopy(fact *colstore.Table, numRows int) *DB {
	return &DB{
		Compressed:   db.Compressed,
		Fact:         fact,
		Dims:         db.Dims,
		dateByKey:    db.dateByKey,
		dateKeys:     db.dateKeys,
		datePosDense: db.datePosDense,
		dateKeyMin:   db.dateKeyMin,
		numRows:      numRows,
		fusedPool:    db.fusedPool,
		seg:          db.seg,
		ckpt:         db.ckpt,
	}
}

// DictBytes is the memory every dictionary of the DB holds (values and
// offsets, fact and dimension tables alike). Dictionaries are frozen when
// the DB is built or opened — inserts must draw from them — so the number
// does not change while the DB serves.
func (db *DB) DictBytes() int64 {
	tables := []*colstore.Table{db.Fact}
	for _, t := range db.Dims {
		tables = append(tables, t)
	}
	var n int64
	for _, t := range tables {
		for _, name := range t.ColumnNames() {
			if d := t.MustColumn(name).Dict; d != nil {
				n += d.Bytes()
			}
		}
	}
	return n
}

// NumRows returns the fact cardinality a query starting now would see:
// sealed rows plus the live write-store delta.
func (db *DB) NumRows() int {
	ig := db.ingest.Load()
	if ig == nil {
		return db.numRows
	}
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.sealed.numRows + int(ig.ws.Pending())
}

// DatePos returns the date-dimension position for a datekey.
func (db *DB) DatePos(key int32) int32 { return db.dateByKey[key] }

// BuildDB loads generated SSBM data into column tables. compressed selects
// between per-block adaptive encodings and all-plain storage (the C / c
// halves of the Figure 7 sweep).
func BuildDB(d *ssb.Data, compressed bool) *DB {
	db := &DB{
		Compressed: compressed,
		Dims:       map[ssb.Dim]*colstore.Table{},
		numRows:    d.NumLineorders(),
		fusedPool:  &sync.Pool{},
	}

	// Date keeps generation (chronological) order; its key is yyyymmdd.
	datePerm := make([]int32, len(d.Date.Key))
	for i := range datePerm {
		datePerm[i] = int32(i)
	}
	perms := map[ssb.Dim][]int32{
		ssb.DimCustomer: hierarchyPerm(len(d.Customer.Key), d.Customer.Region, d.Customer.Nation, d.Customer.City),
		ssb.DimSupplier: hierarchyPerm(len(d.Supplier.Key), d.Supplier.Region, d.Supplier.Nation, d.Supplier.City),
		ssb.DimPart:     hierarchyPerm(len(d.Part.Key), d.Part.MFGR, d.Part.Category, d.Part.Brand1),
		ssb.DimDate:     datePerm,
	}
	for dim, perm := range perms {
		db.Dims[dim] = buildDimTable(dim, compressed, perm, d)
	}
	db.buildDateIndex(d.Date.Key)

	// Fact table: remap customer/supplier/part FKs to dimension positions.
	fkPos := map[string][]int32{}
	for _, dim := range positionKeyed {
		fkPos[dim.FactFK()] = invertKeyPerm(perms[dim])
	}
	fact := colstore.NewTable("lineorder")
	for _, c := range ssb.FactCols {
		if !c.IsInt() {
			vals := *c.Str(&d.Line)
			dict := compress.BuildDict(vals)
			fact.AddColumn(colstore.NewColumn(c.Name, dict.Encode(vals, nil), dict, colstore.Unsorted, compressed))
			continue
		}
		vals := *c.Int(&d.Line)
		if pos := fkPos[c.Name]; pos != nil {
			keys := vals
			vals = make([]int32, len(keys))
			for i, k := range keys {
				vals[i] = pos[k-1]
			}
		}
		fact.AddColumn(colstore.NewColumn(c.Name, vals, nil, factSort[c.Name], compressed))
	}
	db.Fact = fact
	return db
}

// positionKeyed are the dimensions whose keys BuildDB reassigns to row
// positions; the fact columns referencing them (Dim.FactFK) store positions.
var positionKeyed = []ssb.Dim{ssb.DimCustomer, ssb.DimSupplier, ssb.DimPart}

// isRemappedFK reports whether the fact column col stores dimension
// positions rather than logical keys.
func isRemappedFK(col string) bool {
	for _, dim := range positionKeyed {
		if dim.FactFK() == col {
			return true
		}
	}
	return false
}

// factSort is the fact table's sort order (§6.3.2): orderdate primary,
// quantity and discount secondary; every other column is unsorted.
var factSort = map[string]colstore.SortKind{
	"orderdate": colstore.PrimarySort,
	"quantity":  colstore.SecondarySort,
	"discount":  colstore.SecondarySort,
}

// dimLayout is each dimension's physical column order (§5.4.2). The first
// column is the hierarchy root, the table's primary sort. Position-keyed
// dimensions store their logical key last (the catalog's c_custkey,
// s_suppkey, p_partkey): the write path needs it to remap inserted foreign
// keys to physical positions, including after a round trip through a
// segment file, where the build-time permutations are long gone.
var dimLayout = map[ssb.Dim][]string{
	ssb.DimCustomer: {"region", "nation", "city", "name", "address", "phone", "mktsegment", "custkey"},
	ssb.DimSupplier: {"region", "nation", "city", "name", "address", "phone", "suppkey"},
	ssb.DimPart:     {"mfgr", "category", "brand1", "name", "color", "type", "container", "size", "partkey"},
	ssb.DimDate: {"datekey", "year", "yearmonthnum", "yearmonth", "month",
		"monthnuminyear", "weeknuminyear", "daynuminweek", "daynuminmonth",
		"daynuminyear", "dayofweek", "date", "sellingseason"},
}

// buildDateIndex derives the date join structures from the date dimension's
// key column in storage order: the key->position map used by the per-probe
// path and the dense key->position array the fused pipeline indexes into.
// Shared by BuildDB (keys from the generator) and OpenSegmentDB (keys
// decoded from the stored dwdate table).
func (db *DB) buildDateIndex(keys []int32) {
	db.dateKeys = append([]int32(nil), keys...)
	db.dateByKey = make(map[int32]int32, len(keys))
	for i, k := range keys {
		db.dateByKey[k] = int32(i)
	}
	if len(keys) == 0 {
		return
	}
	mn, mx := keys[0], keys[0]
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	db.dateKeyMin = mn
	db.datePosDense = make([]int32, int(mx-mn)+1)
	for i := range db.datePosDense {
		db.datePosDense[i] = -1
	}
	for i, k := range keys {
		db.datePosDense[k-mn] = int32(i)
	}
}

// hierarchyPerm returns the permutation (new position -> original row) that
// sorts dimension rows lexicographically by the given attribute hierarchy.
func hierarchyPerm(n int, levels ...[]string) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		for _, lvl := range levels {
			if lvl[ia] != lvl[ib] {
				return lvl[ia] < lvl[ib]
			}
		}
		return ia < ib
	})
	return perm
}

// invertKeyPerm converts a permutation (new position -> original row) into
// a lookup from original row to new position.
func invertKeyPerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for newPos, orig := range perm {
		inv[orig] = int32(newPos)
	}
	return inv
}

// buildDimTable materializes a dimension table in perm order and dimLayout
// column order, dictionary encoding its string columns.
func buildDimTable(dim ssb.Dim, compressed bool, perm []int32, d *ssb.Data) *colstore.Table {
	t := colstore.NewTable(dim.String())
	for i, name := range dimLayout[dim] {
		sorted := colstore.Unsorted
		if i == 0 {
			sorted = colstore.PrimarySort
		}
		c, ok := ssb.FindCol(dim.Cols(), name)
		if !ok {
			panic("exec: " + dim.String() + " has no column " + name)
		}
		if !c.IsInt() {
			re := ssb.Permute(*c.Str(d), perm)
			dict := compress.BuildDict(re)
			t.AddColumn(colstore.NewColumn(name, dict.Encode(re, nil), dict, sorted, compressed))
			continue
		}
		t.AddColumn(colstore.NewColumn(name, ssb.Permute(*c.Int(d), perm), nil, sorted, compressed))
	}
	return t
}
