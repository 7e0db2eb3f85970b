package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/ssb"
)

// row is one result row as the HTTP API renders it.
type row struct {
	Keys []string `json:"keys,omitempty"`
	Aggs []int64  `json:"aggs"`
}

// answers is what the load helper leaves beside the segment file: the
// brute-force reference answers the driver checks responses against, and
// what the driver needs to generate valid insert batches.
type answers struct {
	Rows   int64          `json:"rows"`
	Totals totals         `json:"totals"`
	Shape  ssb.BatchShape `json:"shape"`
	// Results maps a request key to its answer over the base data.
	Results map[string][]row `json:"results"`
	// AfterA (ingest_mixed only) maps the 13 ids to their answers once
	// every phase-A insert batch has been acked.
	AfterA map[string][]row `json:"after_a,omitempty"`
	Load   struct {
		GenerateS float64 `json:"generate_s"`
		BuildS    float64 `json:"build_s"`
		SaveS     float64 `json:"save_s"`
	} `json:"load"`
}

func toRows(res *ssb.Result) []row {
	out := make([]row, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, row{Keys: r.Keys, Aggs: r.AggValues()})
	}
	return out
}

// loadHelper is the bulk-load process: generate the dataset, build and save
// the compressed segment file (the two calls a server operator would make),
// and compute reference answers from the raw data while it is in memory.
func loadHelper(cfg config) error {
	var ans answers
	t0 := time.Now()
	d := ssb.Generate(cfg.sf)
	ans.Load.GenerateS = time.Since(t0).Seconds()
	ans.Rows = int64(d.NumLineorders())
	ans.Totals.add(&d.Line)
	ans.Shape = d.Shape()

	// The box has two cores and these are two independent read-only jobs
	// over d: the references run beside build+save.
	refErr := make(chan error, 1)
	go func() { refErr <- ans.computeReferences(cfg, d) }()

	t1 := time.Now()
	db := exec.BuildDB(d, true)
	ans.Load.BuildS = time.Since(t1).Seconds()
	t2 := time.Now()
	err := exec.SaveSegments(filepath.Join(cfg.loadInto, "base.seg"), cfg.sf, db)
	ans.Load.SaveS = time.Since(t2).Seconds()
	if rerr := <-refErr; err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	raw, err := json.Marshal(&ans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.loadInto, "answers.json"), raw, 0o644)
}

// computeReferences fills Results (and AfterA) for the workload's requests.
func (a *answers) computeReferences(cfg config, d *ssb.Data) error {
	a.Results = map[string][]row{}
	base := map[string]*ssb.Result{}
	for _, q := range ssb.Queries() {
		base[q.ID] = ssb.Reference(d, q)
		a.Results["id:"+q.ID] = toRows(base[q.ID])
	}
	switch cfg.workload {
	case "serve_hot":
		for _, i := range verifiedAdhoc(cfg.seed) {
			a.Results[adhocKey(i)] = toRows(ssb.Reference(d, adhocQuery(i)))
		}
	case "ingest_mixed":
		// Every SSBM query is a grouped SUM, so the answer over base +
		// batches is the base answer plus the answer over the batches alone
		// (same dimensions, the batch rows as the fact table).
		small := *d
		small.Line = ssb.Lineorders{}
		for i := 0; i < phaseABatches(cfg.seconds); i++ {
			b, err := insertBatch(cfg.seed, i, a.Shape)
			if err != nil {
				return err
			}
			small.AppendBatch(b)
		}
		a.AfterA = map[string][]row{}
		for _, q := range ssb.Queries() {
			for _, s := range q.AggSpecs() {
				if s.Func != ssb.FuncSum {
					return fmt.Errorf("query %s is not a pure SUM; the additive reference does not cover it", q.ID)
				}
			}
			a.AfterA["id:"+q.ID] = toRows(addResults(q.ID, base[q.ID], ssb.Reference(&small, q)))
		}
	}
	return nil
}

// addResults sums two grouped-SUM results group by group.
func addResults(id string, x, y *ssb.Result) *ssb.Result {
	type cell struct {
		keys []string
		aggs []int64
	}
	groups := map[string]*cell{}
	var order []string
	for _, res := range []*ssb.Result{x, y} {
		for _, r := range res.Rows {
			k := strings.Join(r.Keys, "\x00")
			c, ok := groups[k]
			if !ok {
				c = &cell{keys: r.Keys, aggs: make([]int64, len(r.AggValues()))}
				groups[k] = c
				order = append(order, k)
			}
			for i, v := range r.AggValues() {
				c.aggs[i] += v
			}
		}
	}
	rows := make([]ssb.ResultRow, 0, len(order))
	for _, k := range order {
		rows = append(rows, ssb.MakeRow(groups[k].keys, groups[k].aggs))
	}
	return ssb.NewResult(id, rows)
}
