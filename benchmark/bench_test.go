package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself as the bulk-load helper.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-load-into") {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func manifestMetrics(defs []metricDef, bounded bool) []manifestMetric {
	out := make([]manifestMetric, 0, len(defs))
	for _, d := range defs {
		mm := manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounded {
			b := d.Bound
			mm.Bound = &b
		}
		out = append(out, mm)
	}
	return out
}

// TestManifest holds BENCHMARK.json equal to the benchmark's own tables and
// inside the contract's limits.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: got.RunSeconds,
		EndToEnd:   manifestMetrics(endToEnd, true),
		PerLayer:   manifestMetrics(perLayer, false),
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{name, workloads[name].why})
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the benchmark's tables; expected:\n%s", exp)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("run_seconds %d, %d per-layer and %d end-to-end metrics: outside the contract", got.RunSeconds, len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs the whole harness small: every workload untraced, and the
// write workload traced (ladder, paper guard and span file included). It
// spawns real servers on free ports, kills and recovers one, and expects
// every metric reported and zero failed operations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	type runCase struct {
		workload string
		trace    bool
	}
	cases := []runCase{{"ingest_mixed", true}}
	for name := range workloads {
		cases = append(cases, runCase{name, false})
	}
	for _, c := range cases {
		res, err := run(config{workload: c.workload, seed: 7, seconds: 1, trace: c.trace, sf: 0.01, setups: 2})
		if err != nil {
			t.Fatalf("%s trace=%t: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", c.workload, c.trace, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if c.trace {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%t: %d metrics reported, want %d", c.workload, c.trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("%s trace=%t: metric %s missing", c.workload, c.trace, d.Name)
			}
			if !c.trace && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", c.workload, d.Name, v.Value)
			}
		}
	}
}
