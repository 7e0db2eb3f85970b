package sql

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ssb"
)

// FuzzParse feeds arbitrary text to Parse, seeded with the rendered SQL of
// the thirteen SSBM queries, their published text and RandQuery plans. The
// contract: an error, never a panic; and an accepted statement renders
// (Query.SQL) to text that Parse accepts as the same plan and renders the
// same way again, so the result cache's key, the rendered text, is a fixed
// point of the parser.
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
		if !reflect.DeepEqual(roundTripped(again), roundTripped(q)) {
			t.Fatalf("accepted %q as %+v, but its rendering %q parses as %+v", src, *q, text, *again)
		}
	})
}

// TestPlanRoundTrip: a plan rendered as SQL parses back to the same plan,
// field for field, for the thirteen queries and 200 RandQuery seeds.
func TestPlanRoundTrip(t *testing.T) {
	plans := ssb.Queries()
	for seed := int64(0); seed < 200; seed++ {
		plans = append(plans, ssb.RandQuery(seed))
	}
	for _, q := range plans {
		text := q.SQL()
		got, err := Parse(q.ID, text)
		if err != nil {
			t.Errorf("%s: %q does not parse: %v", q.ID, text, err)
			continue
		}
		if !reflect.DeepEqual(roundTripped(got), roundTripped(q)) {
			t.Errorf("%s: %q\nparses as %+v\nwant       %+v", q.ID, text, *got, *q)
		}
	}
}

// roundTripped is the part of q its SQL text carries: Flight (the parser
// infers it) and PaperSelectivity are dropped, and integer IN-sets are
// sorted, since the text lists them in order.
func roundTripped(q *ssb.Query) ssb.Query {
	c := *q
	c.Flight, c.PaperSelectivity = 0, 0
	c.FactFilters = slices.Clone(q.FactFilters)
	for i := range c.FactFilters {
		c.FactFilters[i].Pred.Set = sortedSet(c.FactFilters[i].Pred.Set)
	}
	c.DimFilters = slices.Clone(q.DimFilters)
	for i := range c.DimFilters {
		c.DimFilters[i].IntSet = sortedSet(c.DimFilters[i].IntSet)
	}
	return c
}

func sortedSet(s []int32) []int32 {
	if s == nil {
		return nil
	}
	return slices.Sorted(slices.Values(s))
}
