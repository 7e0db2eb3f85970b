package ssb

import "testing"

// TestSchemaBindings checks the schema declaration against a generated
// instance: every column of every table is bound to a slice holding that
// table's row count, no two columns of a table share a name, and no two
// columns anywhere are bound to the same slice — the mistake a copied
// binding line makes, and one no query would catch on a column nothing
// reads, such as c_address.
func TestSchemaBindings(t *testing.T) {
	d := Generate(0.01)
	bound := map[any]string{} // slice field -> "table.column" bound to it
	check := func(table string, name string, rows, n int, field any) {
		t.Helper()
		if n != rows {
			t.Errorf("%s.%s is bound to a slice of %d rows, the table has %d", table, name, n, rows)
		}
		if prev, dup := bound[field]; dup {
			t.Errorf("%s.%s and %s are bound to the same slice", table, name, prev)
		}
		bound[field] = table + "." + name
	}
	names := map[string]bool{}
	for _, c := range FactCols {
		if names[c.Name] {
			t.Errorf("lineorder declares %s twice", c.Name)
		}
		names[c.Name] = true
		if c.IsInt() == (c.Str != nil) {
			t.Errorf("lineorder.%s must set exactly one of Int and Str", c.Name)
			continue
		}
		var field any
		if c.IsInt() {
			field = c.Int(&d.Line)
		} else {
			field = c.Str(&d.Line)
		}
		check("lineorder", c.Name, d.NumLineorders(), c.Len(&d.Line), field)
	}
	if len(FactCols) != 17 {
		t.Errorf("lineorder has %d columns, paper Figure 1 has 17", len(FactCols))
	}
	// Row counts and keys from the generator's structs, not the schema.
	dims := []struct {
		dim  Dim
		rows int
		key  string
	}{
		{DimCustomer, len(d.Customer.Key), "custkey"},
		{DimSupplier, len(d.Supplier.Key), "suppkey"},
		{DimPart, len(d.Part.Key), "partkey"},
		{DimDate, len(d.Date.Key), "datekey"},
	}
	for _, tc := range dims {
		dim := tc.dim
		names := map[string]bool{}
		for _, c := range dim.Cols() {
			if names[c.Name] {
				t.Errorf("%v declares %s twice", dim, c.Name)
			}
			names[c.Name] = true
			if c.IsInt() == (c.Str != nil) {
				t.Errorf("%v.%s must set exactly one of Int and Str", dim, c.Name)
				continue
			}
			var field any
			if c.IsInt() {
				field = c.Int(d)
			} else {
				field = c.Str(d)
			}
			check(dim.String(), c.Name, tc.rows, c.Len(d), field)
		}
		if key := dim.Cols()[0]; key.Name != tc.key || !key.IsInt() {
			t.Errorf("%v: first column %s is not its integer key", dim, key.Name)
		}
	}
}
