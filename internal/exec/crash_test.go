package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/segstore"
	"repro/internal/ssb"
	"repro/internal/wal"
)

// This file is the crash-recovery harness for the durable ingest path: a
// child process (this same test binary re-exec'd with CRASH_CHILD=1) opens
// a segment-store-backed DB with a WAL, streams marked insert batches and
// interleaved deletes while a background tuple mover runs, and records an
// intent line in a fsynced ledger before each operation and an ack line
// after the engine's durable acknowledgement. The parent SIGKILLs it at a
// randomized point, reopens the store (WAL replay, torn-segment recovery),
// and asserts the transactional contract against the ledger:
//
//   - every acked insert is visible exactly once (no loss, no duplicates);
//   - every acked delete is fully invisible;
//   - an operation whose intent was logged but not acked is atomic — all
//     of its rows or none of them, never a torn prefix.
//
// Batches are marked by giving every row a unique high orderkey, so
// visibility is a per-key histogram over the reopened store. Iterations
// accumulate in one directory: each child replays the previous crash's log
// before appending more, so recovery-of-recovered-state is exercised too.
// CRASH_ITERS overrides the kill-iteration count (CI loops it higher).

const (
	crashKeyMin  = int32(1_500_000_000) // marker keys live above any generated orderkey
	crashRowsPer = 2000                 // rows per marked batch
)

func crashKeyFor(iter, batch int) int32 {
	return crashKeyMin + int32(iter)*1000 + int32(batch)
}

// TestCrashRecoveryChild is the child-process body; it only runs when the
// parent harness re-execs the test binary with CRASH_CHILD=1.
func TestCrashRecoveryChild(t *testing.T) {
	if os.Getenv("CRASH_CHILD") != "1" {
		t.Skip("crash-harness child; run via TestCrashRecovery")
	}
	if err := crashChild(os.Getenv("CRASH_DIR")); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	// Completed every batch before the kill landed; a clean exit is fine.
}

// crashChild ingests until killed: open store + WAL (replaying whatever the
// previous crash left), start the background mover, then loop marked
// inserts with periodic explicit compactions and every-5th-batch deletes,
// ledgering intent and ack around each durable operation.
func crashChild(dir string) error {
	iter, _ := strconv.Atoi(os.Getenv("CRASH_ITER"))
	maxBatch, _ := strconv.Atoi(os.Getenv("CRASH_MAXBATCH"))
	store, err := segstore.Open(filepath.Join(dir, "data.seg"), 0)
	if err != nil {
		return err
	}
	db, err := OpenSegmentDB(store)
	if err != nil {
		return err
	}
	if err := db.EnableDelta(0); err != nil {
		return err
	}
	if n, _ := strconv.Atoi(os.Getenv("CRASH_SEAL_KILL")); n > 0 {
		var passes atomic.Int64
		db.ingest.Load().testHookSealed = func() {
			if passes.Add(1) == int64(n) {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // the signal is on its way
			}
		}
	}
	if err := db.EnableWAL(filepath.Join(dir, "wal.log"), wal.Options{Window: 200 * time.Microsecond}); err != nil {
		return err
	}
	db.StartCompactor()
	ledger, err := os.OpenFile(filepath.Join(dir, "ledger"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	logLine := func(format string, args ...any) error {
		if _, err := fmt.Fprintf(ledger, format, args...); err != nil {
			return err
		}
		return ledger.Sync()
	}
	shape, err := db.BatchShape()
	if err != nil {
		return err
	}
	for i := 0; i < maxBatch; i++ {
		key := crashKeyFor(iter, i)
		batch, err := ssb.RandBatch(int64(iter)*100000+int64(i), crashRowsPer, shape)
		if err != nil {
			return err
		}
		for r := range batch.OrderKey {
			batch.OrderKey[r] = key
		}
		if err := logLine("i %d %d\n", key, crashRowsPer); err != nil {
			return err
		}
		if _, err := db.Insert(batch); err != nil {
			return err
		}
		if err := logLine("I %d %d\n", key, crashRowsPer); err != nil {
			return err
		}
		switch {
		case i%5 == 4:
			// Delete a batch acked two rounds ago (its rows may sit in the
			// write store, the sealed store, or both).
			victim := crashKeyFor(iter, i-2)
			if err := logLine("d %d\n", victim); err != nil {
				return err
			}
			if _, err := db.Delete([]ssb.FactFilter{{Col: "orderkey", Pred: compress.Eq(victim)}}); err != nil {
				return err
			}
			if err := logLine("D %d\n", victim); err != nil {
				return err
			}
		case i%10 == 9:
			// Synchronous seal on top of the background mover: forces
			// checkpoint + log-rewrite traffic into the kill window.
			if _, err := db.CompactNow(); err != nil {
				return err
			}
		}
	}
	db.CloseDelta()
	if err := db.FlushDelta(); err != nil {
		return err
	}
	if err := db.CloseWAL(); err != nil {
		return err
	}
	return store.Close()
}

// ledgerEntry is the parent's per-key expectation parsed from the ledger.
type ledgerEntry struct {
	rows      int64
	acked     bool // insert ack seen
	delIntent bool
	delAcked  bool
}

// parseLedger reads the child ledger, tolerating exactly one torn final
// line (the fsync granularity is one line).
func parseLedger(path string) (map[int32]*ledgerEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[int32]*ledgerEntry{}, nil // killed before any intent
		}
		return nil, err
	}
	entries := map[int32]*ledgerEntry{}
	lines := strings.Split(string(raw), "\n")
	for li, line := range lines {
		if line == "" {
			continue
		}
		last := li >= len(lines)-2 // final (possibly torn) record
		f := strings.Fields(line)
		bad := func() error {
			if last {
				return nil
			}
			return fmt.Errorf("ledger line %d corrupt mid-file: %q", li+1, line)
		}
		if len(f) < 2 {
			if err := bad(); err != nil {
				return nil, err
			}
			continue
		}
		key64, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			if err := bad(); err != nil {
				return nil, err
			}
			continue
		}
		key := int32(key64)
		e := entries[key]
		if e == nil {
			e = &ledgerEntry{}
			entries[key] = e
		}
		switch f[0] {
		case "i", "I":
			if len(f) != 3 {
				if err := bad(); err != nil {
					return nil, err
				}
				continue
			}
			rows, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				if err := bad(); err != nil {
					return nil, err
				}
				continue
			}
			e.rows = rows
			if f[0] == "I" {
				e.acked = true
			}
		case "d":
			e.delIntent = true
		case "D":
			e.delIntent, e.delAcked = true, true
		default:
			if err := bad(); err != nil {
				return nil, err
			}
		}
	}
	return entries, nil
}

// visibleKeyCounts histograms the marker orderkeys visible in one snapshot
// — sealed rows minus the sealed deletion vector, plus delta rows minus the
// write-store deletion vector.
func visibleKeyCounts(db *DB) map[int32]int64 {
	sdb, view, del, _ := db.snapshotForRead()
	counts := map[int32]int64{}
	col, err := sdb.Fact.Column("orderkey")
	if err != nil {
		panic(err)
	}
	for i, v := range col.DecodeAll(nil, nil) {
		if v < crashKeyMin {
			continue
		}
		if del.sealed != nil && del.sealed.Get(i) {
			continue
		}
		counts[v]++
	}
	if view == nil {
		return counts
	}
	next := view.Lo()
	view.ForEach(func(b *delta.Batch, lo, hi int) bool {
		base := next - int64(lo)
		next += int64(hi - lo)
		ok := b.Col("orderkey")
		for r := lo; r < hi; r++ {
			g := base + int64(r)
			if del.ws != nil && g < int64(del.ws.Len()) && del.ws.Get(int(g)) {
				continue
			}
			if v := ok[r]; v >= crashKeyMin {
				counts[v]++
			}
		}
		return true
	})
	return counts
}

// verifyCrashState reopens the store (replaying the WAL) and checks every
// ledger expectation, plus end-to-end engine counts for a sample of keys.
func verifyCrashState(t *testing.T, dir string) {
	t.Helper()
	store, err := segstore.Open(filepath.Join(dir, "data.seg"), 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	db, err := OpenSegmentDB(store)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := db.EnableDelta(0); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := db.EnableWAL(filepath.Join(dir, "wal.log"), wal.Options{}); err != nil {
		t.Fatalf("reopen: WAL replay: %v", err)
	}
	defer db.CloseWAL()

	expect, err := parseLedger(filepath.Join(dir, "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if ws := db.WALStats(); !ws.Enabled {
		t.Fatalf("reopen attached no WAL: %+v", ws)
	}
	counts := visibleKeyCounts(db)
	var exact []int32 // keys with a single admissible count, for engine spot checks
	for key, e := range expect {
		got := counts[key]
		switch {
		case e.delAcked:
			if got != 0 {
				t.Errorf("key %d: delete was acked but %d rows are still visible", key, got)
			}
			exact = append(exact, key)
		case e.delIntent:
			if got != 0 && got != e.rows {
				t.Errorf("key %d: un-acked delete left a torn state: %d rows visible, want 0 or %d", key, got, e.rows)
			}
		case e.acked:
			if got != e.rows {
				t.Errorf("key %d: acked insert has %d visible rows, want exactly %d", key, got, e.rows)
			}
			exact = append(exact, key)
		default:
			if got != 0 && got != e.rows {
				t.Errorf("key %d: un-acked insert is torn: %d rows visible, want 0 or %d", key, got, e.rows)
			}
		}
	}
	for key, got := range counts {
		if _, ok := expect[key]; !ok {
			t.Errorf("key %d: %d rows visible but the ledger never mentioned it", key, got)
		}
	}

	// End-to-end spot checks: the same per-key counts through the full
	// engine matrix (sealed scan + WS scan + deletion vectors).
	if len(exact) > 4 {
		exact = exact[:4]
	}
	for _, key := range exact {
		e := expect[key]
		want := e.rows
		if e.delAcked {
			want = 0
		}
		q := &ssb.Query{
			ID:          fmt.Sprintf("crash-%d", key),
			Aggs:        []ssb.AggSpec{{Func: ssb.FuncCount}},
			FactFilters: []ssb.FactFilter{{Col: "orderkey", Pred: compress.Eq(key)}},
		}
		for _, eng := range ingestEngines() {
			if got := db.Run(q, eng.cfg, nil).Rows[0].AggValues()[0]; got != want {
				t.Errorf("key %d [%s]: count %d, want %d", key, eng.label, got, want)
			}
		}
	}
}

// TestCrashRecovery is the parent harness: N kill iterations at randomized
// points, each verified by a fresh reopen+replay; then kills inside the
// window between a pass's durable footer and its log rewrite (the first and
// the third pass of a child), where the log still holds rows and deletes the
// footer already covers; then one uninterrupted child run (guaranteeing
// seal/checkpoint/rewrite coverage regardless of kill timing) verified the
// same way.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs child processes")
	}
	dir := t.TempDir()
	seed := BuildDB(ssb.Generate(0.005), true)
	if err := SaveSegments(filepath.Join(dir, "data.seg"), 0.005, seed); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}

	iters := 3
	if s := os.Getenv("CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH_ITERS %q", s)
		}
		iters = n
	}
	iter := 0
	for ; iter < iters; iter++ {
		runCrashChild(t, dir, iter, 5000, true, 0)
		verifyCrashState(t, dir)
	}
	for _, pass := range []int{1, 3} {
		runCrashChild(t, dir, iter, 5000, false, pass)
		verifyCrashState(t, dir)
		iter++
	}
	// Final uninterrupted run: deterministic seal + delete + flush coverage.
	runCrashChild(t, dir, iter, 60, false, 0)
	verifyCrashState(t, dir)
}

// runCrashChild re-execs the test binary in child mode; kill=true SIGKILLs
// it after a randomized 5–150ms, and sealKill=n>0 has it SIGKILL itself at
// its n-th tuple-mover pass, after the footer and before the log rewrite.
func runCrashChild(t *testing.T, dir string, iter, maxBatch int, kill bool, sealKill int) {
	t.Helper()
	cmd := osexec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild", "-test.v")
	cmd.Env = append(os.Environ(),
		"CRASH_CHILD=1",
		"CRASH_DIR="+dir,
		"CRASH_ITER="+strconv.Itoa(iter),
		"CRASH_MAXBATCH="+strconv.Itoa(maxBatch),
		"CRASH_SEAL_KILL="+strconv.Itoa(sealKill),
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	if kill {
		time.Sleep(time.Duration(5+rand.Intn(145)) * time.Millisecond)
		cmd.Process.Kill()
	}
	err := cmd.Wait()
	code := cmd.ProcessState.ExitCode()
	switch {
	case err == nil && sealKill == 0:
		// Child finished every batch (possible when the kill lands late).
	case (kill || sealKill > 0) && code == -1:
		// Died by SIGKILL: the expected outcome.
	default:
		t.Fatalf("child iter %d failed (exit %d): %v\n%s", iter, code, err, out.String())
	}
}
