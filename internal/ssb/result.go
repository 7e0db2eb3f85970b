package ssb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ResultRow is one output row: the group-by key values (rendered as
// strings, integers in decimal) and one value per aggregate of the query.
type ResultRow struct {
	Keys []string
	Aggs []int64
}

// AggValues returns the row's aggregate values.
func (r ResultRow) AggValues() []int64 { return r.Aggs }

// Result is a canonicalized query result: rows sorted by group keys so that
// results from different engines compare with simple equality.
type Result struct {
	QueryID string
	Rows    []ResultRow
}

// NewResult sorts rows into canonical order and returns a Result.
func NewResult(queryID string, rows []ResultRow) *Result {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].Keys, rows[j].Keys
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return &Result{QueryID: queryID, Rows: rows}
}

// Equal reports whether two results have identical rows.
func (r *Result) Equal(o *Result) bool {
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	for i, a := range r.Rows {
		b := o.Rows[i]
		if !slices.Equal(a.Keys, b.Keys) || !slices.Equal(a.Aggs, b.Aggs) {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first few differences
// between two results, for test failure messages.
func (r *Result) Diff(o *Result) string {
	var b strings.Builder
	if len(r.Rows) != len(o.Rows) {
		fmt.Fprintf(&b, "row counts differ: %d vs %d\n", len(r.Rows), len(o.Rows))
	}
	n := len(r.Rows)
	if len(o.Rows) < n {
		n = len(o.Rows)
	}
	diffs := 0
	for i := 0; i < n && diffs < 5; i++ {
		a, c := r.Rows[i], o.Rows[i]
		if !slices.Equal(a.Aggs, c.Aggs) || !slices.Equal(a.Keys, c.Keys) {
			fmt.Fprintf(&b, "row %d: %v=%v vs %v=%v\n", i, a.Keys, a.Aggs, c.Keys, c.Aggs)
			diffs++
		}
	}
	return b.String()
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q%s (%d rows)\n", r.QueryID, len(r.Rows))
	for i, row := range r.Rows {
		if i >= 20 {
			fmt.Fprintf(&b, "  ... %d more rows\n", len(r.Rows)-20)
			break
		}
		vals := row.Aggs
		rendered := make([]string, len(vals))
		for k, v := range vals {
			rendered[k] = fmt.Sprintf("%15d", v)
		}
		fmt.Fprintf(&b, "  %-40s %s\n", strings.Join(row.Keys, " | "), strings.Join(rendered, " "))
	}
	return b.String()
}
