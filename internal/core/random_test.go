package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

// randomQuery builds a star-schema query outside the fixed SSBM thirteen:
// random dimension restrictions over the hierarchy attributes, random
// measure filters, random group-by. Only attributes that every engine
// (including the denormalized table) materializes are used.
func randomQuery(rng *rand.Rand, id int) *ssb.Query {
	q := &ssb.Query{ID: fmt.Sprintf("rnd-%d", id)}

	// Aggregate.
	q.Aggs = ssb.QueryByID([]string{"1.1", "2.1", "4.1"}[rng.Intn(3)]).Aggs

	// Fact measure filters.
	if rng.Intn(2) == 0 {
		lo := int32(rng.Intn(9))
		q.FactFilters = append(q.FactFilters, ssb.FactFilter{
			Col: "discount", Pred: compress.Between(lo, lo+int32(rng.Intn(3))),
		})
	}
	if rng.Intn(3) == 0 {
		q.FactFilters = append(q.FactFilters, ssb.FactFilter{
			Col: "quantity", Pred: compress.Lt(int32(rng.Intn(49) + 2)),
		})
	}

	// Dimension filters from a menu covering equality, between, IN, and
	// multi-filter dimensions.
	regions := ssb.Regions
	nations := ssb.Nations
	if rng.Intn(2) == 0 {
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimCustomer, Col: "region", Op: compress.OpEq,
			StrA: regions[rng.Intn(len(regions))],
		})
	}
	switch rng.Intn(3) {
	case 0:
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimSupplier, Col: "nation", Op: compress.OpEq,
			StrA: nations[rng.Intn(len(nations))],
		})
	case 1:
		n := nations[rng.Intn(len(nations))]
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimSupplier, Col: "city", Op: compress.OpIn,
			StrSet: []string{ssb.CityOf(n, rng.Intn(10)), ssb.CityOf(n, rng.Intn(10))},
		})
	}
	switch rng.Intn(3) {
	case 0:
		m := rng.Intn(5) + 1
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimPart, Col: "category", Op: compress.OpEq,
			StrA: ssb.CategoryOf(m, rng.Intn(5)+1),
		})
	case 1:
		m, c := rng.Intn(5)+1, rng.Intn(5)+1
		b := rng.Intn(30) + 1
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimPart, Col: "brand1", Op: compress.OpBetween,
			StrA: ssb.Brand1Of(m, c, b), StrB: ssb.Brand1Of(m, c, b+rng.Intn(5)),
		})
	}
	switch rng.Intn(4) {
	case 0:
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimDate, Col: "year", Op: compress.OpEq,
			IsInt: true, IntA: int32(1992 + rng.Intn(7)),
		})
	case 1:
		y := int32(1992 + rng.Intn(5))
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimDate, Col: "year", Op: compress.OpBetween,
			IsInt: true, IntA: y, IntB: y + int32(rng.Intn(3)),
		})
	case 2:
		// Two filters on the same dimension (the invisible join's
		// double-predicate summarization case).
		q.DimFilters = append(q.DimFilters,
			ssb.DimFilter{Dim: ssb.DimDate, Col: "year", Op: compress.OpEq,
				IsInt: true, IntA: int32(1992 + rng.Intn(7))},
			ssb.DimFilter{Dim: ssb.DimDate, Col: "monthnuminyear", Op: compress.OpBetween,
				IsInt: true, IntA: 1, IntB: int32(1 + rng.Intn(11))},
		)
	}

	// Group-by menu (attributes present in the denormalized table too).
	menu := []ssb.GroupCol{
		{Dim: ssb.DimDate, Col: "year"},
		{Dim: ssb.DimCustomer, Col: "nation"},
		{Dim: ssb.DimSupplier, Col: "region"},
		{Dim: ssb.DimPart, Col: "category"},
		{Dim: ssb.DimSupplier, Col: "city"},
	}
	rng.Shuffle(len(menu), func(i, j int) { menu[i], menu[j] = menu[j], menu[i] })
	q.GroupBy = append(q.GroupBy, menu[:rng.Intn(3)]...)

	if len(q.DimFilters) == 0 && len(q.FactFilters) == 0 && len(q.GroupBy) == 0 {
		// Degenerate; force at least one restriction.
		q.DimFilters = append(q.DimFilters, ssb.DimFilter{
			Dim: ssb.DimCustomer, Col: "region", Op: compress.OpEq, StrA: "ASIA",
		})
	}
	return q
}

// TestRandomQueriesAllEngines fuzzes query plans across every engine that
// can execute ad-hoc queries (the per-flight MV designs are excluded: their
// views are defined only for the fixed SSBM flights). `monthnuminyear` is
// not in the denormalized schema, so denorm runs skip queries using it.
func TestRandomQueriesAllEngines(t *testing.T) {
	db := testDB // SF 0.01, shared with the other integration tests
	rng := rand.New(rand.NewSource(20260611))
	colConfigs := append([]Config{}, Figure7Systems()...)
	rowConfigs := []Config{
		RowStore(rowexec.Traditional),
		RowStore(rowexec.TraditionalBitmap),
		RowStore(rowexec.VerticalPartitioning),
		RowStore(rowexec.AllIndexes),
	}
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		q := randomQuery(rng, trial)
		want := ssb.Reference(db.Data, q)
		check := func(label string, got *ssb.Result) {
			if !got.Equal(want) {
				t.Errorf("trial %d (%s): %s diverges\nfilters=%+v groups=%+v\n%s",
					trial, q.ID, label, q.DimFilters, q.GroupBy, want.Diff(got))
			}
		}
		for _, cfg := range colConfigs {
			check(cfg.Label(), db.ColumnDB(cfg.Col.Compression).Run(q, cfg.Col, nil))
		}
		for _, cfg := range rowConfigs {
			check(cfg.Label(), db.RowDB().RunOpt(q, cfg.Design, true, nil))
			check(cfg.Label()+"-nopart", db.RowDB().RunOpt(q, cfg.Design, false, nil))
		}
		if !usesMonthNum(q) {
			for _, mode := range []exec.DenormMode{exec.DenormNoC, exec.DenormIntC, exec.DenormMaxC} {
				check(mode.String(), db.DenormDB(mode).Run(q, nil))
			}
		}
	}
}

func usesMonthNum(q *ssb.Query) bool {
	for _, f := range q.DimFilters {
		if f.Col == "monthnuminyear" {
			return true
		}
	}
	return false
}
