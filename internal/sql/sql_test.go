package sql

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/ssb"
)

// officialSQL holds the thirteen SSBM queries in their published SQL form
// (O'Neil et al., "The Star Schema Benchmark"), with the paper's Q3.1 text
// using table aliases to exercise qualified references.
var officialSQL = map[string]string{
	"1.1": `SELECT sum(lo_extendedprice*lo_discount) AS revenue
		FROM lineorder, dwdate
		WHERE lo_orderdate = d_datekey AND d_year = 1993
		  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25;`,
	"1.2": `SELECT sum(lo_extendedprice*lo_discount) AS revenue
		FROM lineorder, dwdate
		WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
		  AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35;`,
	"1.3": `SELECT sum(lo_extendedprice*lo_discount) AS revenue
		FROM lineorder, dwdate
		WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6
		  AND d_year = 1994
		  AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 36 AND 40;`,
	"2.1": `SELECT sum(lo_revenue), d_year, p_brand1
		FROM lineorder, dwdate, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
		  AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12'
		  AND s_region = 'AMERICA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	"2.2": `SELECT sum(lo_revenue), d_year, p_brand1
		FROM lineorder, dwdate, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
		  AND lo_suppkey = s_suppkey
		  AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'
		  AND s_region = 'ASIA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	"2.3": `SELECT sum(lo_revenue), d_year, p_brand1
		FROM lineorder, dwdate, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
		  AND lo_suppkey = s_suppkey AND p_brand1 = 'MFGR#2239'
		  AND s_region = 'EUROPE'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1;`,
	// Paper Section 5.4's rendition of Q3.1, with aliases.
	"3.1": `SELECT c.nation, s.nation, d.year, sum(lo.revenue) AS revenue
		FROM customer AS c, lineorder AS lo, supplier AS s, dwdate AS d
		WHERE lo.custkey = c.custkey AND lo.suppkey = s.suppkey
		  AND lo.orderdate = d.datekey AND c.region = 'ASIA'
		  AND s.region = 'ASIA' AND d.year >= 1992 AND d.year <= 1997
		GROUP BY c.nation, s.nation, d.year
		ORDER BY d.year ASC, revenue DESC;`,
	"3.2": `SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, dwdate
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_orderdate = d_datekey AND c_nation = 'UNITED STATES'
		  AND s_nation = 'UNITED STATES' AND d_year BETWEEN 1992 AND 1997
		GROUP BY c_city, s_city, d_year;`,
	"3.3": `SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, dwdate
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5')
		  AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_year BETWEEN 1992 AND 1997
		GROUP BY c_city, s_city, d_year;`,
	"3.4": `SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, dwdate
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5')
		  AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_yearmonth = 'Dec1997'
		GROUP BY c_city, s_city, d_year;`,
	"4.1": `SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit
		FROM dwdate, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, c_nation;`,
	"4.2": `SELECT d_year, s_nation, p_category, sum(lo_revenue - lo_supplycost) AS profit
		FROM dwdate, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, s_nation, p_category;`,
	"4.3": `SELECT d_year, s_city, p_brand1, sum(lo_revenue - lo_supplycost) AS profit
		FROM dwdate, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		  AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES'
		  AND d_year IN (1997, 1998) AND p_category = 'MFGR#14'
		GROUP BY d_year, s_city, p_brand1;`,
}

var sqlTestData = ssb.Generate(0.01)

// TestOfficialQueriesMatchBuiltins parses the published SQL of all thirteen
// queries and checks the compiled plans produce exactly the same results as
// the hand-built logical plans in internal/ssb.
func TestOfficialQueriesMatchBuiltins(t *testing.T) {
	for id, text := range officialSQL {
		parsed, err := Parse(id, text)
		if err != nil {
			t.Errorf("Q%s: parse failed: %v", id, err)
			continue
		}
		builtin := ssb.QueryByID(id)
		want := ssb.Reference(sqlTestData, builtin)
		got := ssb.Reference(sqlTestData, parsed)
		if !got.Equal(want) {
			t.Errorf("Q%s: parsed plan diverges from builtin:\n%s", id, want.Diff(got))
		}
		if parsed.Flight != builtin.Flight {
			t.Errorf("Q%s: inferred flight %d, want %d", id, parsed.Flight, builtin.Flight)
		}
	}
	if len(officialSQL) != 13 {
		t.Fatalf("expected 13 official queries, have %d", len(officialSQL))
	}
}

func TestParsePieces(t *testing.T) {
	q, err := Parse("x", `SELECT sum(lo_revenue), d_year FROM lineorder, dwdate
		WHERE lo_orderdate = d_datekey AND d_year = 1995 GROUP BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q.Aggs, ssb.QueryByID("2.1").Aggs) || len(q.DimFilters) != 1 || len(q.GroupBy) != 1 {
		t.Fatalf("parsed shape wrong: %+v", q)
	}
	f := q.DimFilters[0]
	if f.Dim != ssb.DimDate || f.Col != "year" || !f.IsInt || f.Op != compress.OpEq || f.IntA != 1995 {
		t.Fatalf("dim filter wrong: %+v", f)
	}
}

func TestParseComparisonOperators(t *testing.T) {
	for _, c := range []struct {
		sqlOp string
		op    compress.Op
	}{
		{"=", compress.OpEq}, {"<", compress.OpLt}, {"<=", compress.OpLe},
		{">", compress.OpGt}, {">=", compress.OpGe}, {"<>", compress.OpNe},
	} {
		q, err := Parse("x", `SELECT sum(lo_revenue) FROM lineorder, dwdate
			WHERE lo_orderdate = d_datekey AND d_year `+c.sqlOp+` 1995`)
		if err != nil {
			t.Fatalf("op %q: %v", c.sqlOp, err)
		}
		if q.DimFilters[0].Op != c.op {
			t.Fatalf("op %q compiled to %v", c.sqlOp, q.DimFilters[0].Op)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse("x", `SELECT sum(lo_revenue) FROM lineorder, part
		WHERE lo_partkey = p_partkey AND p_name = 'it''s blue'`)
	if err != nil {
		t.Fatal(err)
	}
	if q.DimFilters[0].StrA != "it's blue" {
		t.Fatalf("escaped string = %q", q.DimFilters[0].StrA)
	}
}

func TestParseComments(t *testing.T) {
	_, err := Parse("x", `-- flight one
		SELECT sum(lo_extendedprice*lo_discount) -- the aggregate
		FROM lineorder, dwdate
		WHERE lo_orderdate = d_datekey AND d_year = 1993`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"no aggregate":     `SELECT d_year FROM lineorder, dwdate WHERE lo_orderdate = d_datekey GROUP BY d_year`,
		"unknown table":    `SELECT sum(lo_revenue) FROM warehouse`,
		"unknown column":   `SELECT sum(lo_revenue) FROM lineorder, dwdate WHERE lo_orderdate = d_datekey AND d_quarter = 1`,
		"missing join":     `SELECT sum(lo_revenue) FROM lineorder, dwdate WHERE d_year = 1995`,
		"bad join":         `SELECT sum(lo_revenue) FROM lineorder, dwdate WHERE lo_custkey = d_datekey`,
		"bad aggregate":    `SELECT sum(lo_tax) FROM lineorder`,
		"string for int":   `SELECT sum(lo_revenue) FROM lineorder, dwdate WHERE lo_orderdate = d_datekey AND d_year = 'x'`,
		"int for string":   `SELECT sum(lo_revenue) FROM lineorder, dwdate WHERE lo_orderdate = d_datekey AND d_yearmonth = 5`,
		"fact group by":    `SELECT sum(lo_revenue) FROM lineorder GROUP BY lo_quantity`,
		"ungrouped item":   `SELECT sum(lo_revenue), d_year FROM lineorder, dwdate WHERE lo_orderdate = d_datekey`,
		"unterminated str": `SELECT sum(lo_revenue) FROM lineorder WHERE lo_quantity = 'oops`,
		"trailing":         `SELECT sum(lo_revenue) FROM lineorder ; extra`,
		"fact pred col":    `SELECT sum(lo_revenue) FROM lineorder WHERE lo_tax = 3`,
		"bad alias ref":    `SELECT sum(lo_revenue) FROM lineorder WHERE z.year = 1995`,
		"mixed between":    `SELECT sum(lo_revenue) FROM lineorder, customer WHERE lo_custkey = c_custkey AND c_nation BETWEEN '' AND 0`,
		"mixed in":         `SELECT sum(lo_revenue) FROM lineorder WHERE lo_quantity IN (1, 'x')`,
		"int32 overflow":   `SELECT sum(lo_revenue) FROM lineorder WHERE lo_quantity < 2147483648`,
	}
	for name, text := range cases {
		if _, err := Parse("x", text); err == nil {
			t.Errorf("%s: expected parse error, got none", name)
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`SELECT 'a''b' <= 42, x_y.z --tail`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a'b", "<=", "42", ",", "x_y", ".", "z", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q want %q (all: %q)", i, texts[i], want[i], texts)
		}
	}
	if kinds[1] != tokString || kinds[2] != tokOp || kinds[3] != tokNumber {
		t.Fatal("token kinds wrong")
	}
	if _, err := lex("SELECT @"); err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatal("lexer should reject @")
	}
}

// TestAdHocQueryBeyondBenchmark shows the dialect is not limited to the 13
// fixed queries.
func TestAdHocQueryBeyondBenchmark(t *testing.T) {
	q, err := Parse("adhoc", `SELECT sum(lo_revenue), s_region, d_year
		FROM lineorder, supplier, dwdate
		WHERE lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND s_nation <> 'CHINA' AND d_monthnuminyear <= 6
		GROUP BY s_region, d_year`)
	if err != nil {
		t.Fatal(err)
	}
	res := ssb.Reference(sqlTestData, q)
	if len(res.Rows) == 0 {
		t.Fatal("ad-hoc query returned nothing")
	}
	// 5 regions x up to 7 years.
	if len(res.Rows) > 35 {
		t.Fatalf("unexpected group count %d", len(res.Rows))
	}
}

// TestCatalogResolvesSchema resolves every column ssb declares through its
// SSB prefix: the catalog must know each one, on the right table, with the
// declared type.
func TestCatalogResolvesSchema(t *testing.T) {
	p := &parser{aliases: map[string]string{}}
	for _, c := range ssb.FactCols {
		ref, err := p.resolve("lo_" + c.Name)
		if err != nil || !ref.isFact || ref.col != c.Name {
			t.Errorf("lo_%s resolves to %+v, %v", c.Name, ref, err)
		}
	}
	prefix := map[ssb.Dim]string{ssb.DimCustomer: "c_", ssb.DimSupplier: "s_", ssb.DimPart: "p_", ssb.DimDate: "d_"}
	for dim, pre := range prefix {
		for _, c := range dim.Cols() {
			ref, err := p.resolve(pre + c.Name)
			if err != nil || ref.isFact || ref.dim != dim || ref.col != c.Name {
				t.Errorf("%s%s resolves to %+v, %v", pre, c.Name, ref, err)
				continue
			}
			if colIsInt(ref) != c.IsInt() {
				t.Errorf("%s%s: catalog says int=%v, schema says %v", pre, c.Name, colIsInt(ref), c.IsInt())
			}
		}
	}
}

// TestFromClosesScope: a column of a table FROM does not list is an error,
// however the column is spelled, and every statement the repository
// renders — the thirteen queries and RandQuery plans — lists each table it
// uses, so all of them still parse.
func TestFromClosesScope(t *testing.T) {
	for name, text := range map[string]string{
		"dimension by prefix": `select sum(lo_revenue) from lineorder where lo_custkey = c_custkey and c_region = 'ASIA'`,
		"dimension by table":  `select sum(lo_revenue) from lineorder where lo_custkey = customer.custkey and customer.region = 'ASIA'`,
		"fact in aggregate":   `select sum(lo_revenue) from customer`,
		"group by":            `select sum(lo_revenue) from lineorder, customer where lo_custkey = c_custkey group by d_year`,
		"select item":         `select sum(lo_revenue), s_nation from lineorder, customer where lo_custkey = c_custkey group by s_nation`,
	} {
		_, err := Parse("x", text)
		if err == nil || !strings.Contains(err.Error(), "which FROM does not list") {
			t.Errorf("%s: err = %v, want one naming the table FROM does not list", name, err)
		}
	}
	for _, q := range ssb.Queries() {
		if _, err := Parse(q.ID, q.SQL()); err != nil {
			t.Errorf("query %s: %v", q.ID, err)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		if _, err := Parse("r", ssb.RandQuery(seed).SQL()); err != nil {
			t.Errorf("RandQuery(%d): %v", seed, err)
		}
	}
}
