package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func tempLog(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func sampleRecords() []Record {
	return []Record{
		Insert{Row: 0, Cols: [][]int32{{1, 2, 3}, {-4, 5, 6}, {7, 8, 9}}},
		Delete{Sealed: []uint32{5, 99, 1000}, WS: []int64{0, 7}},
		Insert{Row: 3, Cols: [][]int32{{4, 4}, {5, 5}, {6, 6}}},
		Delete{Sealed: []uint32{1 << 31}},
		Delete{WS: []int64{1 << 40}},
		Insert{Row: 1 << 40, Cols: [][]int32{{10}, {11}, {12}}},
	}
}

func appendAll(t *testing.T, l *Log, recs []Record) uint64 {
	t.Helper()
	var last uint64
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	return last
}

func TestRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := sampleRecords()
	last := appendAll(t, l, want)
	if err := l.Commit(last); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %#v\nwant %#v", got, want)
	}
	st := l2.Stats()
	if st.Replayed != int64(len(want)) || st.TornBytes != 0 {
		t.Fatalf("stats = %+v, want Replayed=%d TornBytes=0", st, len(want))
	}
	// Appending after replay must keep LSNs monotonic across the reopen.
	lsn, err := l2.Append(Delete{WS: []int64{1}})
	if err != nil {
		t.Fatalf("append after replay: %v", err)
	}
	if lsn != uint64(len(want))+1 {
		t.Fatalf("post-replay LSN = %d, want %d", lsn, len(want)+1)
	}
}

func TestTornTail(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := sampleRecords()
	last := appendAll(t, l, want)
	if err := l.Commit(last); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	l.Close()

	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append at every cut point inside the final
	// record: replay must recover exactly the preceding records and
	// truncate the tail.
	lastFrame := appendFrame(nil, want[len(want)-1], uint64(len(want)))
	for cut := 1; cut < len(lastFrame); cut++ {
		torn := append(append([]byte(nil), clean[:len(clean)-len(lastFrame)]...), lastFrame[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(got) != len(want)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), len(want)-1)
		}
		st := l2.Stats()
		if st.TornBytes != int64(cut) {
			t.Fatalf("cut %d: TornBytes = %d", cut, st.TornBytes)
		}
		l2.Close()
		// The truncation is durable: a second reopen sees a clean log.
		l3, got3, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if len(got3) != len(want)-1 || l3.Stats().TornBytes != 0 {
			t.Fatalf("cut %d: truncation not durable", cut)
		}
		l3.Close()
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	last := appendAll(t, l, want)
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file: replay must stop at the
	// corrupt frame (CRC) and keep only the intact prefix.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, got, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(got) >= len(want) {
		t.Fatalf("replayed %d records through a corrupt frame", len(got))
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("prefix record %d mutated: %#v", i, r)
		}
	}
}

func TestRewrite(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := appendAll(t, l, sampleRecords())
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		Insert{Row: 2000, Cols: [][]int32{{1}, {2}}},
	}
	if err := l.Rewrite(want); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// Rewritten state is durable without further commits.
	st := l.Stats()
	if st.DurableLSN != st.LastLSN {
		t.Fatalf("rewrite left undurable tail: %+v", st)
	}
	// Post-rewrite appends extend the new log.
	lsn, err := l.Append(Delete{WS: []int64{2000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, got, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	want = append(want, Delete{WS: []int64{2000}})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after rewrite:\n got %#v\nwant %#v", got, want)
	}
	if tmp := path + ".tmp"; fileExists(tmp) {
		t.Fatalf("rewrite left temp file %s", tmp)
	}
}

// TestOpenRejectsEarlierLog pins the log format version: a log an earlier
// build wrote fails closed at Open, naming the file, instead of replaying as
// an empty log (its first frame would read as corrupt and be truncated away).
func TestOpenRejectsEarlierLog(t *testing.T) {
	path := tempLog(t)
	if err := os.WriteFile(path, []byte(magicV1+"old frames"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, _, err := Open(path, Options{}); err == nil {
		l.Close()
		t.Fatal("an earlier build's log opened")
	} else if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "earlier build") {
		t.Fatalf("err = %v, want the path and \"earlier build\"", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != magicV1+"old frames" {
		t.Fatalf("the refused log was modified: %q, %v", data, err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestCommitAlreadyDurable(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(Delete{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Already durable: Commit must return without waiting out the window.
	done := make(chan error, 1)
	go func() { done <- l.Commit(lsn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit blocked on an already-durable LSN")
	}
}

// TestGroupCommitAmortizes pins the acceptance criterion: with several
// concurrent insert streams and a small window, fsyncs are strictly fewer
// than committed batches.
func TestGroupCommitAmortizes(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const streams, batches = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				lsn, err := l.Append(Insert{Cols: [][]int32{{int32(s)}, {int32(b)}}})
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(lsn); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Commits != streams*batches {
		t.Fatalf("Commits = %d, want %d", st.Commits, streams*batches)
	}
	if st.Syncs >= st.Commits {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d commits", st.Syncs, st.Commits)
	}
	if st.DurableLSN != uint64(streams*batches) {
		t.Fatalf("DurableLSN = %d, want %d", st.DurableLSN, streams*batches)
	}
}

// BenchmarkGroupCommit measures per-batch ack latency and fsync rate across
// the stream-count x window matrix reported in PERFORMANCE.md.
func BenchmarkGroupCommit(b *testing.B) {
	for _, streams := range []int{1, 4, 16} {
		for _, window := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
			name := fmt.Sprintf("streams=%d/window=%s", streams, window)
			b.Run(name, func(b *testing.B) {
				l, _, err := Open(tempLog(b), Options{Window: window})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				cols := make([][]int32, 17)
				for i := range cols {
					cols[i] = make([]int32, 1000)
				}
				start := time.Now()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := (b.N + streams - 1) / streams
				for s := 0; s < streams; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							lsn, err := l.Append(Insert{Cols: cols})
							if err != nil {
								b.Error(err)
								return
							}
							if err := l.Commit(lsn); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				el := time.Since(start)
				st := l.Stats()
				b.ReportMetric(float64(st.Syncs)/el.Seconds(), "fsyncs/sec")
				b.ReportMetric(float64(st.Commits)/el.Seconds(), "batches/sec")
				b.ReportMetric(float64(el.Nanoseconds())/float64(per), "ns/ack")
			})
		}
	}
}

// TestRewriteFailsOnDirSyncError makes the directory fsync after a rewrite's
// rename fail: Rewrite must return that error, and the log must refuse
// every later append, since the records it would ack may not survive a
// crash.
func TestRewriteFailsOnDirSyncError(t *testing.T) {
	path := tempLog(t)
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Commit(appendAll(t, l, sampleRecords())); err != nil {
		t.Fatal(err)
	}
	injected := fmt.Errorf("injected directory fsync failure")
	l.syncDir = func(string) error { return injected }
	err = l.Rewrite([]Record{Insert{Row: 7, Cols: [][]int32{{1}}}})
	if err == nil || !strings.Contains(err.Error(), injected.Error()) {
		t.Fatalf("Rewrite = %v, want the directory fsync's error", err)
	}
	if _, err := l.Append(Delete{WS: []int64{7}}); err == nil {
		t.Fatal("Append after a failed rewrite succeeded")
	}
	if st := l.Stats(); st.Rewrites != 0 {
		t.Fatalf("a failed rewrite was counted: %+v", st)
	}
}

// TestSyncDirReportsErrors pins that syncDir returns what it hits instead
// of swallowing it.
func TestSyncDirReportsErrors(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir on a missing directory returned nil")
	}
}
