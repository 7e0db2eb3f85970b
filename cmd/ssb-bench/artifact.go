package main

import (
	"encoding/json"
	"os"
)

// benchSchema versions the -json artifact. v2 is the normalized shape: one
// flat measurement list across every figure (the v1 artifact was
// kernels-only with a bespoke schema).
const benchSchema = "ssb-bench/v2"

// measurement is one (figure, system, query, metric) cell. Better says
// which direction is an improvement — "lower" for latencies and byte
// counts, "higher" for throughput.
type measurement struct {
	Figure string  `json:"figure"`
	System string  `json:"system"`
	Query  string  `json:"query,omitempty"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Better string  `json:"better"`
}

// benchArtifact is the machine-readable result of one ssb-bench run,
// written by -json (the repository benchmark's paper guard reads it).
type benchArtifact struct {
	Schema       string        `json:"schema"`
	SF           float64       `json:"sf"`
	Figures      []string      `json:"figures"`
	Measurements []measurement `json:"measurements"`
}

// collector accumulates measurements as figures run. Figures execute
// sequentially, so no locking.
var collector benchArtifact

// record adds one cell to the run's artifact.
func record(figure, system, query, metric string, value float64, better string) {
	collector.Measurements = append(collector.Measurements,
		measurement{Figure: figure, System: system, Query: query, Metric: metric, Value: value, Better: better})
}

// recordFigure notes that a figure ran (artifact readers can tell an empty
// figure from one that never executed).
func recordFigure(name string) {
	for _, f := range collector.Figures {
		if f == name {
			return
		}
	}
	collector.Figures = append(collector.Figures, name)
}

// writeArtifact serializes the run's collected measurements.
func writeArtifact(path string, sf float64) error {
	collector.Schema = benchSchema
	collector.SF = sf
	buf, err := json.MarshalIndent(&collector, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
