package sql

import (
	"testing"

	"repro/internal/ssb"
)

// FuzzParse feeds arbitrary text to Parse, seeded with the rendered SQL of
// the thirteen SSBM queries, their published text and RandQuery plans. The
// contract: an error, never a panic; and an accepted statement renders
// (Query.SQL) to text that Parse accepts and renders the same way again, so
// the result cache's key, the rendered text, is a fixed point of the parser.
func FuzzParse(f *testing.F) {
	for _, q := range ssb.Queries() {
		f.Add(q.SQL())
	}
	for _, text := range officialSQL {
		f.Add(text)
	}
	for seed := int64(0); seed < 50; seed++ {
		f.Add(ssb.RandQuery(seed).SQL())
	}
	// A column of a table FROM does not list (refused; it used to answer as
	// if customer were listed).
	f.Add("select sum(lo_revenue) from lineorder where lo_custkey = c_custkey and c_region = 'ASIA'")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		text := q.SQL()
		again, err := Parse("fuzz", text)
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", src, text, err)
		}
		if got := again.SQL(); got != text {
			t.Fatalf("accepted %q renders %q, which re-renders %q", src, text, got)
		}
	})
}
