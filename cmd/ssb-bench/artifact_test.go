package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactRoundTrip: what record/recordFigure collect is what
// writeArtifact puts on disk, under the schema tag the artifact's readers
// (the repository benchmark's paper guard) expect.
func TestArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")

	saved := collector
	defer func() { collector = saved }()
	collector = benchArtifact{}
	recordFigure("5")
	recordFigure("5") // dedup
	record("5", "C-Store", "1.1", "total_s", 1.25, "lower")
	record("segstore", "warm", "", "qps", 900, "higher")
	if err := writeArtifact(path, 0.01); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchArtifact
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != "ssb-bench/v2" || got.SF != 0.01 {
		t.Fatalf("header %q sf=%g", got.Schema, got.SF)
	}
	if len(got.Figures) != 1 || got.Figures[0] != "5" {
		t.Fatalf("figures %v, want [5]", got.Figures)
	}
	want := measurement{Figure: "5", System: "C-Store", Query: "1.1", Metric: "total_s", Value: 1.25, Better: "lower"}
	if len(got.Measurements) != 2 || got.Measurements[0] != want {
		t.Fatalf("measurements %+v", got.Measurements)
	}
}
