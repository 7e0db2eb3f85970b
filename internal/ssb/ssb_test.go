package ssb

import (
	"math"
	"strings"
	"testing"
)

// testSF is small enough for fast tests but large enough that the paper's
// published selectivities are measurable (the rarest query qualifies ~0
// rows below this scale).
const testSF = 0.02

var testData = Generate(testSF)

func TestCardinalities(t *testing.T) {
	d := testData
	if got, want := len(d.Customer.Key), scaled(customersPerSF, testSF); got != want {
		t.Errorf("customers = %d want %d", got, want)
	}
	if got, want := len(d.Supplier.Key), scaled(suppliersPerSF, testSF); got != want {
		t.Errorf("suppliers = %d want %d", got, want)
	}
	if got, want := len(d.Part.Key), PartCount(testSF); got != want {
		t.Errorf("parts = %d want %d", got, want)
	}
	// DATE covers 1992-01-01..1998-12-31: 7*365+2 leap days.
	if got := d.NumDates(); got != 2557 {
		t.Errorf("dates = %d want 2557", got)
	}
	// LINEORDER ~ orders * 4 (1..7 lines uniform).
	orders := scaled(ordersPerSF, testSF)
	got := d.NumLineorders()
	if got < orders*3 || got > orders*5 {
		t.Errorf("lineorders = %d, expected ~%d", got, orders*4)
	}
}

func TestPartCountPaperFormula(t *testing.T) {
	if PartCount(1) != 200000 {
		t.Errorf("PartCount(1) = %d", PartCount(1))
	}
	if PartCount(10) != int(200000*(1+math.Log2(10))) {
		t.Errorf("PartCount(10) = %d", PartCount(10))
	}
	if PartCount(0.001) < 1000 {
		t.Errorf("tiny SF should keep brand combinations populated: %d", PartCount(0.001))
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(0.002)
	b := Generate(0.002)
	if a.NumLineorders() != b.NumLineorders() {
		t.Fatal("nondeterministic cardinality")
	}
	for i := 0; i < a.NumLineorders(); i += 97 {
		if a.Line.Revenue[i] != b.Line.Revenue[i] || a.Line.CustKey[i] != b.Line.CustKey[i] {
			t.Fatalf("row %d differs between runs", i)
		}
	}
}

func TestFactSortOrder(t *testing.T) {
	lo := &testData.Line
	for i := 1; i < len(lo.OrderDate); i++ {
		if lo.OrderDate[i] < lo.OrderDate[i-1] {
			t.Fatal("orderdate not primary sorted")
		}
		if lo.OrderDate[i] == lo.OrderDate[i-1] {
			if lo.Quantity[i] < lo.Quantity[i-1] {
				t.Fatal("quantity not secondarily sorted")
			}
			if lo.Quantity[i] == lo.Quantity[i-1] && lo.Discount[i] < lo.Discount[i-1] {
				t.Fatal("discount not tertiarily sorted")
			}
		}
	}
}

func TestValueDomains(t *testing.T) {
	lo := &testData.Line
	for i := range lo.Quantity {
		if lo.Quantity[i] < 1 || lo.Quantity[i] > 50 {
			t.Fatalf("quantity out of domain: %d", lo.Quantity[i])
		}
		if lo.Discount[i] < 0 || lo.Discount[i] > 10 {
			t.Fatalf("discount out of domain: %d", lo.Discount[i])
		}
		wantRev := lo.ExtendedPrice[i] * (100 - lo.Discount[i]) / 100
		if lo.Revenue[i] != wantRev {
			t.Fatalf("revenue %d != extprice*(100-disc)/100 = %d", lo.Revenue[i], wantRev)
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	d := testData
	dateIdx := d.DateIndex()
	for i := 0; i < d.NumLineorders(); i++ {
		if k := d.Line.CustKey[i]; k < 1 || int(k) > len(d.Customer.Key) {
			t.Fatalf("custkey %d out of range", k)
		}
		if k := d.Line.SuppKey[i]; k < 1 || int(k) > len(d.Supplier.Key) {
			t.Fatalf("suppkey %d out of range", k)
		}
		if k := d.Line.PartKey[i]; k < 1 || int(k) > len(d.Part.Key) {
			t.Fatalf("partkey %d out of range", k)
		}
		if _, ok := dateIdx[d.Line.OrderDate[i]]; !ok {
			t.Fatalf("orderdate %d not in DATE", d.Line.OrderDate[i])
		}
	}
}

func TestHierarchies(t *testing.T) {
	d := testData
	// customer: region determined by nation; city prefixed by nation.
	for i := range d.Customer.Key {
		nation := d.Customer.Nation[i]
		if d.Customer.Region[i] != NationRegion[nation] {
			t.Fatalf("customer %d: region %q for nation %q", i, d.Customer.Region[i], nation)
		}
		prefix := nation
		if len(prefix) > 9 {
			prefix = prefix[:9]
		}
		if !strings.HasPrefix(d.Customer.City[i], strings.TrimRight(prefix, " ")) {
			t.Fatalf("customer city %q does not derive from nation %q", d.Customer.City[i], nation)
		}
	}
	// part: brand1 prefixed by category prefixed by mfgr.
	for i := range d.Part.Key {
		if !strings.HasPrefix(d.Part.Category[i], d.Part.MFGR[i]) {
			t.Fatalf("category %q not under mfgr %q", d.Part.Category[i], d.Part.MFGR[i])
		}
		if !strings.HasPrefix(d.Part.Brand1[i], d.Part.Category[i]) {
			t.Fatalf("brand %q not under category %q", d.Part.Brand1[i], d.Part.Category[i])
		}
	}
	// 25 nations, 5 regions, 10 cities per nation at this scale.
	nations := map[string]bool{}
	for _, n := range d.Customer.Nation {
		nations[n] = true
	}
	if len(nations) != 25 {
		t.Errorf("customer nations = %d want 25", len(nations))
	}
}

func TestDateDimension(t *testing.T) {
	d := testData
	if d.Date.Key[0] != 19920101 || d.Date.Key[len(d.Date.Key)-1] != 19981231 {
		t.Fatalf("date range [%d, %d]", d.Date.Key[0], d.Date.Key[len(d.Date.Key)-1])
	}
	// Spot-check derived fields for 1994-02-14.
	idx := -1
	for i, k := range d.Date.Key {
		if k == 19940214 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("1994-02-14 missing")
	}
	if d.Date.Year[idx] != 1994 || d.Date.YearMonthNum[idx] != 199402 ||
		d.Date.MonthNumInYr[idx] != 2 || d.Date.DayNumInMonth[idx] != 14 {
		t.Fatal("derived date fields wrong for 1994-02-14")
	}
	if d.Date.YearMonth[idx] != "Feb1994" {
		t.Fatalf("yearmonth = %q", d.Date.YearMonth[idx])
	}
	// Dec1997 exists (query 3.4 depends on it).
	found := false
	for _, ym := range d.Date.YearMonth {
		if ym == "Dec1997" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("Dec1997 missing from yearmonth")
	}
}

// TestSelectivitiesMatchPaper pins the generator to the paper's published
// per-query LINEORDER selectivities (Section 3). Tolerance is a factor of
// 2.5 for the common queries and looser for the two rarest (3.3, 3.4)
// whose counts are tiny at test scale.
func TestSelectivitiesMatchPaper(t *testing.T) {
	for _, q := range Queries() {
		got := Selectivity(testData, q)
		want := q.PaperSelectivity
		expectRows := want * float64(testData.NumLineorders())
		if expectRows < 20 {
			// Too few expected qualifying rows at test scale for a
			// two-sided check (e.g. Q3.3 expects ~6, Q3.4 ~0.1);
			// only require the query stays rare.
			if got > want*20+1e-9 {
				t.Errorf("Q%s: selectivity %.2e, paper %.2e", q.ID, got, want)
			}
			continue
		}
		tol := 2.5
		if got > want*tol || got < want/tol {
			t.Errorf("Q%s: selectivity %.3e, paper %.3e (tolerance x%.1f)", q.ID, got, want, tol)
		}
	}
}

func TestQueriesWellFormed(t *testing.T) {
	qs := Queries()
	if len(qs) != 13 {
		t.Fatalf("got %d queries", len(qs))
	}
	flights := map[int]int{}
	for _, q := range qs {
		flights[q.Flight]++
		if q.ID == "" || q.PaperSelectivity <= 0 {
			t.Errorf("query %q malformed", q.ID)
		}
		// Flight 1 has no group-by; others do.
		if (q.Flight == 1) != (len(q.GroupBy) == 0) {
			t.Errorf("Q%s: group-by shape wrong", q.ID)
		}
		if len(q.DimsUsed()) == 0 {
			t.Errorf("Q%s uses no dimensions", q.ID)
		}
	}
	if flights[1] != 3 || flights[2] != 3 || flights[3] != 4 || flights[4] != 3 {
		t.Errorf("flight sizes: %v", flights)
	}
	if QueryByID("2.2") == nil || QueryByID("9.9") != nil {
		t.Error("QueryByID wrong")
	}
}

func TestReferenceQ11Formula(t *testing.T) {
	// Independent recomputation of Q1.1 straight from arrays.
	d := testData
	dateIdx := d.DateIndex()
	var want int64
	for i := 0; i < d.NumLineorders(); i++ {
		if d.Line.Discount[i] >= 1 && d.Line.Discount[i] <= 3 && d.Line.Quantity[i] < 25 {
			di := dateIdx[d.Line.OrderDate[i]]
			if d.Date.Year[di] == 1993 {
				want += int64(d.Line.ExtendedPrice[i]) * int64(d.Line.Discount[i])
			}
		}
	}
	res := Reference(d, QueryByID("1.1"))
	if len(res.Rows) != 1 || res.Rows[0].Aggs[0] != want {
		t.Fatalf("Q1.1 reference = %v, want %d", res.Rows, want)
	}
	if want == 0 {
		t.Fatal("Q1.1 selected nothing; test scale too small")
	}
}

func TestReferenceGroupedQueries(t *testing.T) {
	d := testData
	for _, id := range []string{"2.1", "3.1", "4.1"} {
		q := QueryByID(id)
		res := Reference(d, q)
		if len(res.Rows) == 0 {
			t.Errorf("Q%s: empty result at SF %v", id, testSF)
			continue
		}
		// Keys have the right arity and canonical sort order.
		for i, row := range res.Rows {
			if len(row.Keys) != len(q.GroupBy) {
				t.Fatalf("Q%s row %d has %d keys", id, i, len(row.Keys))
			}
			if i > 0 {
				prev := strings.Join(res.Rows[i-1].Keys, "\x00")
				cur := strings.Join(row.Keys, "\x00")
				if cur < prev {
					t.Fatalf("Q%s rows not canonically sorted", id)
				}
			}
		}
	}
}

func TestResultEqualAndDiff(t *testing.T) {
	row := func(key string, aggs ...int64) ResultRow { return ResultRow{Keys: []string{key}, Aggs: aggs} }
	a := NewResult("x", []ResultRow{row("b", 2), row("a", 1)})
	b := NewResult("x", []ResultRow{row("a", 1), row("b", 2)})
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	if !strings.Contains(a.String(), "2 rows") {
		t.Fatal("String() header wrong")
	}
	// Each pair differs in one row's aggregate list only: in the first
	// value, after it, or in its length.
	for _, tc := range []struct{ x, y []int64 }{
		{[]int64{1}, []int64{3}},
		{[]int64{1, 2, 3}, []int64{1, 2, 4}},
		{[]int64{1, 2}, []int64{1}},
		{[]int64{1}, []int64{1, 0}},
		{nil, []int64{0}},
	} {
		x := NewResult("x", []ResultRow{row("a", 1), row("b", tc.x...)})
		y := NewResult("x", []ResultRow{row("a", 1), row("b", tc.y...)})
		if x.Equal(y) || y.Equal(x) {
			t.Errorf("aggs %v and %v compared equal", tc.x, tc.y)
		}
		if d := x.Diff(y); !strings.Contains(d, "row 1:") {
			t.Errorf("aggs %v vs %v: Diff %q does not name row 1", tc.x, tc.y, d)
		}
	}
}

func TestCityOf(t *testing.T) {
	if got := CityOf("UNITED KINGDOM", 1); got != "UNITED KI1" {
		t.Fatalf("CityOf = %q", got)
	}
	if got := CityOf("PERU", 5); got != "PERU     5" {
		t.Fatalf("CityOf short = %q", got)
	}
	if len(CityOf("PERU", 9)) != 10 {
		t.Fatal("city must be 10 chars")
	}
}

func TestBrandNaming(t *testing.T) {
	if MfgrOf(2) != "MFGR#2" || CategoryOf(2, 2) != "MFGR#22" || Brand1Of(2, 2, 21) != "MFGR#2221" {
		t.Fatal("part hierarchy naming wrong")
	}
	// Q2.2's between range must select exactly brands 21..28 of MFGR#22.
	matched := 0
	for b := 1; b <= 40; b++ {
		s := Brand1Of(2, 2, b)
		if s >= "MFGR#2221" && s <= "MFGR#2228" {
			matched++
			if b < 21 || b > 28 {
				t.Fatalf("brand %d (%s) wrongly in Q2.2 range", b, s)
			}
		}
	}
	if matched != 8 {
		t.Fatalf("Q2.2 range matched %d brands, want 8", matched)
	}
}
