package sql

import (
	"fmt"
	"strings"

	"repro/internal/ssb"
)

// The static catalog: table names and their spellings. Columns and their
// types come from the schema ssb declares (paper Figure 1), so resolving a
// name needs no generated dataset.

// canonicalTable maps accepted spellings to canonical table names.
func canonicalTable(name string) (string, bool) {
	switch name {
	case "lineorder", "lo":
		return "lineorder", true
	case "customer":
		return "customer", true
	case "supplier":
		return "supplier", true
	case "part":
		return "part", true
	case "dwdate", "date", "ddate":
		return "dwdate", true
	}
	return "", false
}

// dimOfTable maps a canonical dimension table name to its ssb.Dim.
func dimOfTable(name string) (ssb.Dim, bool) {
	switch name {
	case "customer":
		return ssb.DimCustomer, true
	case "supplier":
		return ssb.DimSupplier, true
	case "part":
		return ssb.DimPart, true
	case "dwdate":
		return ssb.DimDate, true
	}
	return 0, false
}

// numTables counts the canonical tables: lineorder and the four dimensions.
const numTables = 5

// tableIndex numbers a canonical table name: lineorder 0, dimension d 1+d.
func tableIndex(canon string) int {
	if d, ok := dimOfTable(canon); ok {
		return 1 + int(d)
	}
	return 0
}

// ssbPrefix maps the SSB column prefix to its table.
var ssbPrefix = map[string]string{
	"lo": "lineorder",
	"c":  "customer",
	"s":  "supplier",
	"p":  "part",
	"d":  "dwdate",
}

// resolve turns a textual reference into a colRef. Accepted forms:
//
//	lo_revenue, d_year      SSB underscore prefixes
//	c.nation, lo.revenue    alias-qualified (aliases from FROM)
//	customer.nation         table-qualified
func (p *parser) resolve(name string) (colRef, error) {
	lower := strings.ToLower(name)
	var table, col string
	if i := strings.IndexByte(lower, '.'); i >= 0 {
		qual, rest := lower[:i], lower[i+1:]
		canon, ok := p.aliases[qual]
		if !ok {
			canon, ok = canonicalTable(qual)
			if !ok {
				return colRef{}, fmt.Errorf("sql: unknown table or alias %q in %q", qual, name)
			}
		}
		table, col = canon, rest
	} else if i := strings.IndexByte(lower, '_'); i >= 0 {
		if t, ok := ssbPrefix[lower[:i]]; ok {
			table, col = t, lower[i+1:]
		}
	}
	if table == "" {
		return colRef{}, fmt.Errorf("sql: cannot resolve column %q (use an SSB prefix like lo_/d_ or qualify it)", name)
	}
	if u := &p.firstUse[tableIndex(table)]; u.text == "" {
		u.table, u.text = table, name
	}
	if table == "lineorder" {
		if _, ok := ssb.FindCol(ssb.FactCols, col); !ok {
			return colRef{}, fmt.Errorf("sql: lineorder has no column %q", col)
		}
		return colRef{isFact: true, col: col}, nil
	}
	dim, _ := dimOfTable(table)
	if _, ok := ssb.FindCol(dim.Cols(), col); !ok {
		return colRef{}, fmt.Errorf("sql: %s has no column %q", table, col)
	}
	return colRef{dim: dim, col: col}, nil
}

// colIsInt reports whether a resolved dimension column is an integer.
func colIsInt(ref colRef) bool {
	c, _ := ssb.FindCol(ref.dim.Cols(), ref.col)
	return c.IsInt()
}

// classifyJoin validates a fact-FK = dimension-key equality.
func classifyJoin(a, b colRef) (ssb.Dim, error) {
	fact, dimRef := a, b
	if !fact.isFact {
		fact, dimRef = b, a
	}
	if !fact.isFact || dimRef.isFact {
		return 0, fmt.Errorf("sql: join must relate a lineorder foreign key to a dimension key")
	}
	if dimRef.col != dimRef.dim.KeyCol() {
		return 0, fmt.Errorf("sql: join on %s.%s: only primary-key joins are supported", dimRef.dim, dimRef.col)
	}
	if fact.col != dimRef.dim.FactFK() {
		return 0, fmt.Errorf("sql: join between lo_%s and %s.%s is not a foreign-key join",
			fact.col, dimRef.dim, dimRef.col)
	}
	return dimRef.dim, nil
}
