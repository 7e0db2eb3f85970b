// SQL shell: an interactive prompt over the SSBM dialect. Statements are
// parsed, shown as EXPLAIN output, executed on a chosen engine, and checked
// against the brute-force reference.
//
//	go run ./examples/sqlshell [-sf 0.02] [-system CS]
//
// Shell commands:
//
//	\system CS|RS|RS-MV|...   switch engine (same names as cmd/ssb-query)
//	\explain on|off           toggle plan display
//	\q 2.1                    run a built-in SSBM query by id
//	\quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rowexec"
	"repro/internal/sql"
	"repro/internal/ssb"
)

func main() {
	sf := flag.Float64("sf", 0.02, "scale factor")
	system := flag.String("system", "CS", "initial engine")
	flag.Parse()

	db := core.Open(*sf)
	cfg, err := parseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	showPlan := true
	fmt.Printf("SSBM shell at SF=%g (%d fact rows) on %s. Try:\n", *sf, db.Data.NumLineorders(), cfg.Label())
	fmt.Println(`  SELECT sum(lo_revenue), d_year FROM lineorder, dwdate
    WHERE lo_orderdate = d_datekey AND d_year >= 1995 GROUP BY d_year;`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	fmt.Print("ssb> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, `\`) {
			if handleMeta(trimmed, db, &cfg, &showPlan) {
				return
			}
			fmt.Print("ssb> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.Contains(line, ";") {
			fmt.Print("...> ")
			continue
		}
		runSQL(db, cfg, pending.String(), showPlan)
		pending.Reset()
		fmt.Print("ssb> ")
	}
}

// handleMeta processes backslash commands; returns true to exit.
func handleMeta(cmd string, db *core.DB, cfg *core.Config, showPlan *bool) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\quit`, `\q+exit`, `\exit`:
		return true
	case `\system`:
		if len(fields) != 2 {
			fmt.Println("usage: \\system CS|RS|RS-MV|...")
			return false
		}
		c, err := parseSystem(fields[1])
		if err != nil {
			fmt.Println(err)
			return false
		}
		*cfg = c
		fmt.Printf("engine: %s\n", c.Label())
	case `\explain`:
		*showPlan = len(fields) < 2 || fields[1] != "off"
		fmt.Printf("explain: %v\n", *showPlan)
	case `\q`:
		if len(fields) != 2 {
			fmt.Println("usage: \\q <query id, e.g. 2.1>")
			return false
		}
		q := ssb.QueryByID(fields[1])
		if q == nil {
			fmt.Printf("unknown query %q\n", fields[1])
			return false
		}
		runPlan(db, *cfg, q, *showPlan)
	default:
		fmt.Println("commands: \\system <name>, \\explain on|off, \\q <id>, \\quit")
	}
	return false
}

func runSQL(db *core.DB, cfg core.Config, text string, showPlan bool) {
	text = strings.TrimSpace(text)
	if text == "" || text == ";" {
		return
	}
	q, err := sql.Parse("shell", text)
	if err != nil {
		fmt.Println(err)
		return
	}
	runPlan(db, cfg, q, showPlan)
}

func runPlan(db *core.DB, cfg core.Config, q *ssb.Query, showPlan bool) {
	if showPlan {
		if plan, err := db.ExplainPlan(q, cfg); err == nil {
			fmt.Print(plan)
		}
	}
	res, stats, err := db.RunPlan(q, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(res.String())
	fmt.Printf("cpu=%v  io=%.1fMB  io-time=%v  total=%v\n",
		stats.Wall, float64(stats.IO.BytesRead)/1e6, stats.IOTime, stats.Total)
	want := ssb.Reference(db.Data, q)
	if !res.Equal(want) {
		fmt.Println("WARNING: result diverges from brute-force reference!")
	}
}

// parseSystem mirrors cmd/ssb-query's naming.
func parseSystem(s string) (core.Config, error) {
	switch strings.ToUpper(s) {
	case "CS":
		return core.ColumnStore(exec.FullOpt), nil
	case "RS":
		return core.RowStore(rowexec.Traditional), nil
	case "RS-TB":
		return core.RowStore(rowexec.TraditionalBitmap), nil
	case "RS-MV":
		return core.RowStore(rowexec.MaterializedViews), nil
	case "RS-VP":
		return core.RowStore(rowexec.VerticalPartitioning), nil
	case "RS-AI":
		return core.RowStore(rowexec.AllIndexes), nil
	case "PJ-NOC":
		return core.Denormalized(exec.DenormNoC), nil
	case "PJ-INTC":
		return core.Denormalized(exec.DenormIntC), nil
	case "PJ-MAXC":
		return core.Denormalized(exec.DenormMaxC), nil
	}
	return core.Config{}, fmt.Errorf("unknown system %q", s)
}
