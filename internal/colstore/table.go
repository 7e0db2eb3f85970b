package colstore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Table is a set of equal-length columns matched by position.
type Table struct {
	Name  string
	cols  map[string]*Column
	order []string
	n     int
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, cols: map[string]*Column{}}
}

// AddColumn attaches col to the table. It panics if the name is duplicated
// or the length disagrees with existing columns, since both indicate
// construction bugs rather than runtime conditions.
func (t *Table) AddColumn(col *Column) {
	if _, dup := t.cols[col.Name]; dup {
		panic(fmt.Sprintf("colstore: duplicate column %q in table %q", col.Name, t.Name))
	}
	if len(t.order) > 0 && col.NumRows() != t.n {
		panic(fmt.Sprintf("colstore: column %q has %d rows, table %q has %d",
			col.Name, col.NumRows(), t.Name, t.n))
	}
	t.n = col.NumRows()
	t.cols[col.Name] = col
	t.order = append(t.order, col.Name)
}

// Column returns the named column, or an error naming the table.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// MustColumn is Column for statically known names (query plans for the
// built-in SSBM queries).
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.cols[name]
	return ok
}

// ColumnNames returns the column names in insertion order.
func (t *Table) ColumnNames() []string { return t.order }

// NumRows returns the table cardinality.
func (t *Table) NumRows() int { return t.n }

// CompressedBytes sums the on-disk footprint of all columns.
func (t *Table) CompressedBytes() int64 {
	var b int64
	for _, c := range t.cols {
		b += c.CompressedBytes()
	}
	return b
}

// RawBytes sums the uncompressed footprint of all columns.
func (t *Table) RawBytes() int64 {
	var b int64
	for _, c := range t.cols {
		b += c.RawBytes()
	}
	return b
}

// EncodingSummary returns "colname:encoding xN" lines sorted by column name,
// for cmd/ssb-gen diagnostics.
func (t *Table) EncodingSummary() []string {
	names := append([]string(nil), t.order...)
	sort.Strings(names)
	var out []string
	for _, name := range names {
		c := t.cols[name]
		// Rendered from the census's own keys, in tag order, so an encoding
		// this function has never heard of still shows up.
		encs := c.Encodings()
		var kinds []string
		for _, e := range slices.Sorted(maps.Keys(encs)) {
			kinds = append(kinds, fmt.Sprintf("%s x%d", e, encs[e]))
		}
		out = append(out, fmt.Sprintf("%s: %v (%d bytes)", name, kinds, c.CompressedBytes()))
	}
	return out
}

// BlobTable stores whole tuples as opaque byte payloads in a single logical
// column. It models the paper's "CS (Row-MV)" configuration (Section 6.1):
// row-oriented materialized view data stored inside the column-store as
// "tables that have a single column of type string" whose values are entire
// tuples.
type BlobTable struct {
	Name string
	Rows [][]byte
	size int64
}

// NewBlobTable builds a blob table over pre-serialized rows.
func NewBlobTable(name string, rows [][]byte) *BlobTable {
	t := &BlobTable{Name: name, Rows: rows}
	for _, r := range rows {
		t.size += int64(len(r))
	}
	return t
}

// NumRows returns the row count.
func (t *BlobTable) NumRows() int { return len(t.Rows) }

// Bytes returns the total payload size, charged when the single "column" is
// scanned.
func (t *BlobTable) Bytes() int64 { return t.size }
