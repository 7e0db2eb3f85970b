package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// The paper guard: Figures 5 and 7 at a small scale factor through the
// ssb-bench CLI, read from its -json cells. No end-to-end metric should move
// with these; they show that a change to the serving path did not break the
// ablation engines the reproduction exists for.
const (
	guardSF   = "0.05"
	guardReps = "1"
)

// guardCells maps a metric to the (figure, system) whose average total_s
// over the 13 queries it reports.
var guardCells = map[string][2]string{
	"rowexec.fig5_rs_avg_s":   {"5", "RS"},
	"rowexec.fig5_rsmv_avg_s": {"5", "RS (MV)"},
	"exec.fig5_cs_avg_s":      {"5", "CS"},
	"exec.fig5_csrowmv_avg_s": {"5", "CS (Row-MV)"},
	"exec.fig7_tICL_avg_s":    {"7", "tICL"},
	"exec.fig7_Ticl_avg_s":    {"7", "Ticl"},
}

func runPaperGuard(e *env, m *metricSet) error {
	out := filepath.Join(e.work, "guard.json")
	cmd := exec.Command(e.benchBin, "-sf", guardSF, "-figure", "5,7", "-reps", guardReps, "-json", out)
	cmd.Stderr = os.Stderr
	var err error
	e.spans.timed("guard.ssb-bench", func() { err = runChild(cmd) })
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var art struct {
		Measurements []struct {
			Figure, System, Query, Metric string
			Value                         float64
		}
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		return err
	}
	for name, cell := range guardCells {
		var sum float64
		var n int
		for _, c := range art.Measurements {
			if c.Figure == cell[0] && c.System == cell[1] && c.Metric == "total_s" {
				sum += c.Value
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("ssb-bench -json has no total_s cells for figure %s system %q", cell[0], cell[1])
		}
		m.set(name, sum/float64(n), n)
	}
	return nil
}
