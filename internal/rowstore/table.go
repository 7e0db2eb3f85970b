package rowstore

import (
	"sort"

	"repro/internal/iosim"
)

// PageSize matches the paper's System X configuration ("32 KB disk pages").
const PageSize = 32 * 1024

// page is one heap page: raw tuple bytes plus a slot directory.
type page struct {
	buf   []byte
	slots []int32 // byte offset of each tuple
}

// Table is a heap file of encoded tuples.
type Table struct {
	Name   string
	Schema *Schema

	pages      []*page
	pageStarts []int32 // first rid on each page
	n          int
	scratch    Row // reused by Fetch
}

// NewTable returns an empty heap table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Append stores a tuple and returns its record id.
func (t *Table) Append(r Row) int32 {
	sz := t.Schema.EncodedSize(r)
	var p *page
	if len(t.pages) > 0 {
		last := t.pages[len(t.pages)-1]
		if len(last.buf)+sz <= PageSize {
			p = last
		}
	}
	if p == nil {
		p = &page{buf: make([]byte, 0, PageSize)}
		t.pages = append(t.pages, p)
		t.pageStarts = append(t.pageStarts, int32(t.n))
	}
	p.slots = append(p.slots, int32(len(p.buf)))
	p.buf = t.Schema.Encode(r, p.buf)
	rid := int32(t.n)
	t.n++
	return rid
}

// NumRows returns the tuple count.
func (t *Table) NumRows() int { return t.n }

// NumPages returns the heap page count.
func (t *Table) NumPages() int { return len(t.pages) }

// HeapBytes is the on-disk footprint of the heap file. Pages are charged in
// full (a real scan reads whole pages, including slack).
func (t *Table) HeapBytes() int64 { return int64(len(t.pages)) * PageSize }

// DataBytes is the sum of encoded tuple bytes (diagnostics).
func (t *Table) DataBytes() int64 {
	var b int64
	for _, p := range t.pages {
		b += int64(len(p.buf))
	}
	return b
}

// Scan invokes fn with (rid, row) for every tuple in heap order, charging
// one page read per page. The row is reused between calls; clone to retain.
func (t *Table) Scan(st *iosim.Stats, fn func(rid int32, row Row) bool) {
	row := make(Row, t.Schema.NumCols())
	for pi, p := range t.pages {
		st.Read(PageSize)
		rid := t.pageStarts[pi]
		for _, off := range p.slots {
			t.Schema.DecodeInto(p.buf[off:], row)
			if !fn(rid, row) {
				return
			}
			rid++
		}
	}
}

// Fetch decodes the tuple with the given rid. Each fetch charges one page
// read plus a seek — the cost an unclustered index pays to visit the base
// relation. The returned row is valid until the next Fetch.
func (t *Table) Fetch(rid int32, st *iosim.Stats) Row {
	pi := sort.Search(len(t.pageStarts), func(i int) bool { return t.pageStarts[i] > rid }) - 1
	p := t.pages[pi]
	slot := rid - t.pageStarts[pi]
	if t.scratch == nil {
		t.scratch = make(Row, t.Schema.NumCols())
	}
	st.Read(PageSize)
	st.AddSeeks(1)
	t.Schema.DecodeInto(p.buf[p.slots[slot]:], t.scratch)
	return t.scratch
}

// VerticalTable is one column's two-column table in the fully vertically
// partitioned design: (position, value) pairs, exactly as Section 4
// describes ("this approach creates one physical table for each column...
// one with values from column i and one with the corresponding value in the
// position column").
type VerticalTable struct {
	*Table
}

// BuildVertical produces one two-column heap table per column of src.
func BuildVertical(src *Table) map[string]*VerticalTable {
	out := make(map[string]*VerticalTable, src.Schema.NumCols())
	cols := make([]*Table, src.Schema.NumCols())
	for i, name := range src.Schema.Names {
		sch := NewSchema([]string{"pos", name}, []ColType{TInt, src.Schema.Types[i]})
		cols[i] = NewTable(src.Name+"."+name, sch)
	}
	var st iosim.Stats // construction I/O is not part of query accounting
	src.Scan(&st, func(rid int32, row Row) bool {
		for i := range cols {
			cols[i].Append(Row{{I: rid}, row[i]})
		}
		return true
	})
	for i, name := range src.Schema.Names {
		out[name] = &VerticalTable{Table: cols[i]}
	}
	return out
}

// BuildMV materializes a view with exactly the named columns of src (the
// paper's "materialized views" design: minimal projections, no pre-joining).
func BuildMV(src *Table, name string, cols []string) *Table {
	sch := src.Schema.Project(cols)
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = src.Schema.MustColIndex(c)
	}
	mv := NewTable(name, sch)
	out := make(Row, len(cols))
	var st iosim.Stats
	src.Scan(&st, func(_ int32, row Row) bool {
		for i, j := range idx {
			out[i] = row[j]
		}
		mv.Append(out)
		return true
	})
	return mv
}
