// Command benchmark is the repository's serving benchmark: it builds
// cmd/ssb-serve from the checked-out tree, bulk-loads an SSBM segment file in
// a helper process, spawns a real ssb-serve child, drives one workload over
// keep-alive HTTP, verifies every answer, and prints every metric by name.
//
//	go run -C benchmark . --workload scan_warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics). --trace 0 measures the end-to-end metrics; --trace 1 is
// a separate run that produces the per-layer metrics and a span file.
// README.md explains the workloads, metrics, bounds and sizing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	// setups is how many times the server is spawned and warmed; setup_s is
	// the median and the last instance serves the measured window.
	setups int
	// loadInto switches the process into bulk-load helper mode.
	loadInto string
}

// env is what a workload needs from the harness.
type env struct {
	cfg      config
	work     string // this run's scratch directory, removed at exit
	serveBin string
	benchBin string
	segPath  string // bulk-loaded base segment file
	ans      *answers
	client   *client
	spans    *spanLog
	ops      *opCounter
	// answered counts verified query responses; the CPU sampler reads it.
	answered atomic.Int64
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for pass permutations, Zipf draws, verification sample and insert batches")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run (per-layer metrics + span file); 0 = end-to-end metrics")
	flag.Float64Var(&cfg.sf, "sf", 1, "SSBM scale factor of the bulk-loaded file")
	flag.StringVar(&cfg.loadInto, "load-into", "", "internal: run as the bulk-load helper writing into this directory")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.setups = 3

	if cfg.loadInto != "" {
		if err := loadHelper(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: load helper:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and returns its metrics.
func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 1 {
		return nil, errors.New("need -seconds >= 1")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, client: newClient(), spans: &spanLog{}, ops: &opCounter{}}
	buildDir := filepath.Join(root, ".bench_build")
	e.work = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	stopChildren := reapOnSignal(e.work)
	defer stopChildren()
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	if e.serveBin, err = buildBinary(root, buildDir, "ssb-serve"); err != nil {
		return nil, err
	}
	if cfg.trace {
		if e.benchBin, err = buildBinary(root, buildDir, "ssb-bench"); err != nil {
			return nil, err
		}
	}
	if err := e.bulkLoad(); err != nil {
		return nil, err
	}

	m := newMetricSet()
	spinBefore := hostSpin()
	if err := wl.run(e, m); err != nil {
		return nil, err
	}
	spinAfter := hostSpin()
	m.set("host.spin_before_ms", spinBefore, 1)
	m.set("host.spin_after_ms", spinAfter, 1)
	disturbed := spinAfter > spinBefore*1.10 || spinBefore > spinAfter*1.10

	if cfg.trace {
		m.set("ssb.generate_s", e.ans.Load.GenerateS, 1)
		m.set("exec.build_s", e.ans.Load.BuildS, 1)
		m.set("segstore.save_s", e.ans.Load.SaveS, 1)
		if err := runLadder(e, m); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := runPaperGuard(e, m); err != nil {
			return nil, fmt.Errorf("paper guard: %w", err)
		}
		spanPath := filepath.Join(buildDir, "trace-"+cfg.workload+".json")
		if err := e.spans.writeFile(spanPath); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s (%d dropped past the cap)\n", len(e.spans.spans), spanPath, e.spans.dropped)
	}

	res := &result{
		Correct:   e.ops.failed == 0,
		Attempted: e.ops.attempted,
		Failed:    e.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range runDefs(cfg) {
		v, ok := m.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v.value, Unit: d.Unit}
	}
	printReport(cfg, m, e.ops, spinBefore, spinAfter, disturbed)
	return res, nil
}

// runDefs is the metric list a run must report: end-to-end for an untraced
// run, per-layer for a traced one.
func runDefs(cfg config) []metricDef {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// printReport prints every measured metric by name with unit, sample count
// and (end-to-end) regression bound, then the op counts and host marker.
func printReport(cfg config, m *metricSet, ops *opCounter, spinBefore, spinAfter float64, disturbed bool) {
	fmt.Printf("workload %s seed %d window %gs sf %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.sf, cfg.trace)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\tbetter\tbound")
	known := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.Name] = d
	}
	// Metrics of the other run kind are listed only where this run measured
	// them anyway (a traced run also times queries; ingest_mixed always
	// times inserts).
	wanted := map[string]bool{}
	for _, d := range runDefs(cfg) {
		wanted[d.Name] = true
	}
	names := make([]string, 0, len(m.vals))
	for name, v := range m.vals {
		if wanted[name] || v.samples > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v, d := m.vals[name], known[name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\t%s\n", name, v.value, d.Unit, v.samples, d.Better, bound)
	}
	tw.Flush()
	fmt.Printf("ops: attempted %d, failed %d, refused-and-retried %d\n", ops.attempted, ops.failed, ops.refused)
	for _, msg := range ops.messages {
		fmt.Println("  failure:", msg)
	}
	mark := ""
	if disturbed {
		mark = "  ** disturbed: host speed moved > 10% across this workload **"
	}
	fmt.Printf("host.spin_ms before %.1f after %.1f%s\n", spinBefore, spinAfter, mark)
}

// findRoot returns the checkout root: the nearest ancestor of the working
// directory that holds BENCHMARK.json (go run -C benchmark starts us in
// benchmark/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildBinary builds cmd/<name> of the checked-out tree into buildDir. The
// go build cache makes repeats cheap.
func buildBinary(root, buildDir, name string) (string, error) {
	out := filepath.Join(buildDir, "bin", name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/%s: %w", name, err)
	}
	return out, nil
}

// bulkLoad runs this binary as the load helper (so the generated dataset's
// memory dies with the helper) and reads back the answers file.
func (e *env) bulkLoad() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.Command(self,
		"-load-into", e.work,
		"-workload", e.cfg.workload,
		"-seed", fmt.Sprint(e.cfg.seed),
		"-seconds", fmt.Sprint(e.cfg.seconds),
		"-sf", fmt.Sprint(e.cfg.sf))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := runChild(cmd); err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	e.segPath = filepath.Join(e.work, "base.seg")
	raw, err := os.ReadFile(filepath.Join(e.work, "answers.json"))
	if err != nil {
		return err
	}
	e.ans = &answers{}
	if err := json.Unmarshal(raw, e.ans); err != nil {
		return fmt.Errorf("answers.json: %w", err)
	}
	fmt.Printf("bulk load: sf %g, %d fact rows, %.2fs (generate %.2f, build %.2f, save %.2f; reference answers alongside)\n",
		e.cfg.sf, e.ans.Rows, time.Since(start).Seconds(), e.ans.Load.GenerateS, e.ans.Load.BuildS, e.ans.Load.SaveS)
	return nil
}

// reapOnSignal kills every live child and removes the run's scratch
// directory if the benchmark itself is interrupted, so no ssb-serve and no
// copy of the segment file outlives it. The returned func stops the watcher
// and kills whatever is still registered.
func reapOnSignal(work string) func() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			killChildren()
			_ = os.RemoveAll(work) // exiting on a signal: nothing to report it to
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		close(done)
		signal.Stop(sig)
		killChildren()
	}
}
