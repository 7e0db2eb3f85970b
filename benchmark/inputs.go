package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/ssb"
)

// This file derives every input from the seed. The helper process and the
// driver both call these functions, so they agree without passing inputs
// between them.

// Sizing constants; README.md records how each was chosen.
const (
	// adhocPlans is the number of ad-hoc SQL texts beside the 13 ids in the
	// serve_hot request set: 100 distinct requests. Each must run once per
	// set-up to fill the result cache, and a run sets up three times.
	adhocPlans = 87
	// adhocVerified is how many of them get a reference answer (the rest
	// are checked for stability against their own first response).
	adhocVerified = 16
	// zipfS is the skew of serve_hot's popularity distribution.
	zipfS = 1.1
	// hotChunk is serve_hot's chunk length, about 0.2 s of one client's
	// traffic: the unit of warm-up, of tracing alternation and of the level
	// metrics' slices.
	hotChunk = 400
	// insertBatchRows and insertRate define ingest_mixed's open-loop write
	// load: explicit-row batches at a fixed rate, a quarter of the ~120
	// batches/s the write burst reaches on this box.
	insertBatchRows = 1000
	insertRate      = 32.0
	// phaseAShare of the window runs reads beside the open-loop writer; the
	// rest is the write-only closed-loop burst.
	phaseAShare = 0.7
)

// request is one distinct thing a client can ask.
type request struct {
	// key names the request in samples, answers and reports: "id:1.1" or
	// "sql:17".
	key string
	// path is the GET path for by-id requests; body the POST body for
	// ad-hoc SQL. The traced variants ask for the per-stage trace.
	path, tracedPath string
	body, tracedBody []byte
}

// idRequests returns the 13 SSBM queries by id.
func idRequests() []request {
	var out []request
	for _, q := range ssb.Queries() {
		p := "/query?id=" + url.QueryEscape(q.ID)
		out = append(out, request{key: "id:" + q.ID, path: p, tracedPath: p + "&trace=1"})
	}
	return out
}

// adhocPool is the ad-hoc plan pool: the first adhocPlans plans of
// ssb.RandQuery(0), RandQuery(1), ... with at most two group-by attributes,
// which keeps every response under a few hundred KB (three-attribute
// group-bys reach 7.5 MB, and one such request would set the workload's
// throughput by itself). The pool is fixed, not seeded: the seed moves which
// requests are drawn when, never what the request set costs, so runs with
// different seeds measure the same traffic mix.
var adhocPool = func() []*ssb.Query {
	var pool []*ssb.Query
	for seed := int64(0); len(pool) < adhocPlans; seed++ {
		if q := ssb.RandQuery(seed); len(q.GroupBy) <= 2 {
			pool = append(pool, q)
		}
	}
	return pool
}()

func adhocQuery(i int) *ssb.Query { return adhocPool[i] }

func adhocKey(i int) string { return fmt.Sprintf("sql:%d", i) }

// adhocRequests renders the ad-hoc pool as POST bodies.
func adhocRequests() ([]request, error) {
	out := make([]request, 0, adhocPlans)
	for i := 0; i < adhocPlans; i++ {
		text := adhocQuery(i).SQL()
		body, err := json.Marshal(map[string]any{"sql": text})
		if err != nil {
			return nil, err
		}
		traced, err := json.Marshal(map[string]any{"sql": text, "trace": true})
		if err != nil {
			return nil, err
		}
		out = append(out, request{key: adhocKey(i), path: "/query", tracedPath: "/query", body: body, tracedBody: traced})
	}
	return out, nil
}

// verifiedAdhoc picks which ad-hoc plans the helper computes reference
// answers for.
func verifiedAdhoc(seed int64) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(adhocPlans)[:adhocVerified]
}

// phaseABatches is the number of insert batches the open-loop writer sends
// in phase A of ingest_mixed — fixed by the schedule, so the helper can
// compute the answers that must hold once they are all acked.
func phaseABatches(seconds float64) int {
	return int(insertRate * phaseAShare * seconds)
}

// insertBatch generates the i-th insert batch of a run.
func insertBatch(seed int64, i int, shape ssb.BatchShape) (*ssb.Lineorders, error) {
	return ssb.RandBatch(seed*1_000_003+int64(i), insertBatchRows, shape)
}

// totals are the three whole-table aggregates the ingest checks compare.
type totals struct {
	Count, Revenue, Quantity int64
}

func (t *totals) add(lo *ssb.Lineorders) {
	t.Count += int64(lo.Len())
	for i := range lo.Revenue {
		t.Revenue += int64(lo.Revenue[i])
		t.Quantity += int64(lo.Quantity[i])
	}
}

const totalsSQL = "select count(*), sum(lo_revenue), sum(lo_quantity) from lineorder"
