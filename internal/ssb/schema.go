package ssb

// This file is the one declaration of the SSBM schema (paper Figure 1):
// each table's columns in specification order, each bound to the slice of
// Lineorders or Data that holds its values. The SQL catalog, the row-store
// heaps, the column-store build and the write path all derive their column
// lists from it.

// Col is one column of a table whose rows a T holds: its name and a binding
// to its values. Exactly one of Int and Str is set.
type Col[T any] struct {
	Name string
	Int  func(*T) *[]int32
	Str  func(*T) *[]string
}

// IsInt reports whether c is an integer column.
func (c Col[T]) IsInt() bool { return c.Int != nil }

// Len returns the number of values c holds in t.
func (c Col[T]) Len(t *T) int {
	if c.Int != nil {
		return len(*c.Int(t))
	}
	return len(*c.Str(t))
}

// FindCol returns the column of cols named name.
func FindCol[T any](cols []Col[T], name string) (Col[T], bool) {
	for _, c := range cols {
		if c.Name == name {
			return c, true
		}
	}
	return Col[T]{}, false
}

// FactCols is LINEORDER: 17 columns, two of them strings.
var FactCols = []Col[Lineorders]{
	{Name: "orderkey", Int: func(lo *Lineorders) *[]int32 { return &lo.OrderKey }},
	{Name: "linenumber", Int: func(lo *Lineorders) *[]int32 { return &lo.LineNumber }},
	{Name: "custkey", Int: func(lo *Lineorders) *[]int32 { return &lo.CustKey }},
	{Name: "partkey", Int: func(lo *Lineorders) *[]int32 { return &lo.PartKey }},
	{Name: "suppkey", Int: func(lo *Lineorders) *[]int32 { return &lo.SuppKey }},
	{Name: "orderdate", Int: func(lo *Lineorders) *[]int32 { return &lo.OrderDate }},
	{Name: "ordpriority", Str: func(lo *Lineorders) *[]string { return &lo.OrdPriority }},
	{Name: "shippriority", Int: func(lo *Lineorders) *[]int32 { return &lo.ShipPriority }},
	{Name: "quantity", Int: func(lo *Lineorders) *[]int32 { return &lo.Quantity }},
	{Name: "extendedprice", Int: func(lo *Lineorders) *[]int32 { return &lo.ExtendedPrice }},
	{Name: "ordtotalprice", Int: func(lo *Lineorders) *[]int32 { return &lo.OrdTotalPrice }},
	{Name: "discount", Int: func(lo *Lineorders) *[]int32 { return &lo.Discount }},
	{Name: "revenue", Int: func(lo *Lineorders) *[]int32 { return &lo.Revenue }},
	{Name: "supplycost", Int: func(lo *Lineorders) *[]int32 { return &lo.SupplyCost }},
	{Name: "tax", Int: func(lo *Lineorders) *[]int32 { return &lo.Tax }},
	{Name: "commitdate", Int: func(lo *Lineorders) *[]int32 { return &lo.CommitDate }},
	{Name: "shipmode", Str: func(lo *Lineorders) *[]string { return &lo.ShipMode }},
}

// dimCols holds the four dimension tables, indexed by Dim; each starts with
// its key column.
var dimCols = [...][]Col[Data]{
	DimCustomer: {
		{Name: "custkey", Int: func(d *Data) *[]int32 { return &d.Customer.Key }},
		{Name: "name", Str: func(d *Data) *[]string { return &d.Customer.Name }},
		{Name: "address", Str: func(d *Data) *[]string { return &d.Customer.Address }},
		{Name: "city", Str: func(d *Data) *[]string { return &d.Customer.City }},
		{Name: "nation", Str: func(d *Data) *[]string { return &d.Customer.Nation }},
		{Name: "region", Str: func(d *Data) *[]string { return &d.Customer.Region }},
		{Name: "phone", Str: func(d *Data) *[]string { return &d.Customer.Phone }},
		{Name: "mktsegment", Str: func(d *Data) *[]string { return &d.Customer.MktSegment }},
	},
	DimSupplier: {
		{Name: "suppkey", Int: func(d *Data) *[]int32 { return &d.Supplier.Key }},
		{Name: "name", Str: func(d *Data) *[]string { return &d.Supplier.Name }},
		{Name: "address", Str: func(d *Data) *[]string { return &d.Supplier.Address }},
		{Name: "city", Str: func(d *Data) *[]string { return &d.Supplier.City }},
		{Name: "nation", Str: func(d *Data) *[]string { return &d.Supplier.Nation }},
		{Name: "region", Str: func(d *Data) *[]string { return &d.Supplier.Region }},
		{Name: "phone", Str: func(d *Data) *[]string { return &d.Supplier.Phone }},
	},
	DimPart: {
		{Name: "partkey", Int: func(d *Data) *[]int32 { return &d.Part.Key }},
		{Name: "name", Str: func(d *Data) *[]string { return &d.Part.Name }},
		{Name: "mfgr", Str: func(d *Data) *[]string { return &d.Part.MFGR }},
		{Name: "category", Str: func(d *Data) *[]string { return &d.Part.Category }},
		{Name: "brand1", Str: func(d *Data) *[]string { return &d.Part.Brand1 }},
		{Name: "color", Str: func(d *Data) *[]string { return &d.Part.Color }},
		{Name: "type", Str: func(d *Data) *[]string { return &d.Part.Type }},
		{Name: "size", Int: func(d *Data) *[]int32 { return &d.Part.Size }},
		{Name: "container", Str: func(d *Data) *[]string { return &d.Part.Container }},
	},
	DimDate: {
		{Name: "datekey", Int: func(d *Data) *[]int32 { return &d.Date.Key }},
		{Name: "date", Str: func(d *Data) *[]string { return &d.Date.Date }},
		{Name: "dayofweek", Str: func(d *Data) *[]string { return &d.Date.DayOfWeek }},
		{Name: "month", Str: func(d *Data) *[]string { return &d.Date.Month }},
		{Name: "year", Int: func(d *Data) *[]int32 { return &d.Date.Year }},
		{Name: "yearmonthnum", Int: func(d *Data) *[]int32 { return &d.Date.YearMonthNum }},
		{Name: "yearmonth", Str: func(d *Data) *[]string { return &d.Date.YearMonth }},
		{Name: "daynuminweek", Int: func(d *Data) *[]int32 { return &d.Date.DayNumInWeek }},
		{Name: "daynuminmonth", Int: func(d *Data) *[]int32 { return &d.Date.DayNumInMonth }},
		{Name: "daynuminyear", Int: func(d *Data) *[]int32 { return &d.Date.DayNumInYear }},
		{Name: "monthnuminyear", Int: func(d *Data) *[]int32 { return &d.Date.MonthNumInYr }},
		{Name: "weeknuminyear", Int: func(d *Data) *[]int32 { return &d.Date.WeekNumInYear }},
		{Name: "sellingseason", Str: func(d *Data) *[]string { return &d.Date.SellingSeason }},
	},
}

// Cols returns the dimension's columns, key first.
func (d Dim) Cols() []Col[Data] { return dimCols[d] }

// keepRows compacts s in place to the rows keep marks.
func keepRows[E any](s []E, keep []bool) []E {
	out := s[:0]
	for i, v := range s {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}

// Permute returns s reordered so that row p is s[perm[p]].
func Permute[E any](s []E, perm []int32) []E {
	out := make([]E, len(perm))
	for p, i := range perm {
		out[p] = s[i]
	}
	return out
}
