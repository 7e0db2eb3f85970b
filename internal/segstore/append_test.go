package segstore

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/colstore"
)

// appendCols builds an AppendColumn set of n rows for the test table: the
// "sorted" column either continues ascending from base or breaks order.
func appendCols(n int, sortedBase int32, ascending bool, seed int64) []AppendColumn {
	rng := rand.New(rand.NewSource(seed))
	sorted := make([]int32, n)
	lowCard := make([]int32, n)
	mono := make([]int32, n)
	region := make([]int32, n)
	for i := 0; i < n; i++ {
		if ascending {
			sorted[i] = sortedBase + int32(i/3)
		} else {
			sorted[i] = rng.Int31n(sortedBase + 1)
		}
		lowCard[i] = rng.Int31n(4)
		mono[i] = rng.Int31n(1 << 20)
		region[i] = rng.Int31n(5)
	}
	return []AppendColumn{
		{Name: "sorted", Vals: sorted},
		{Name: "lowcard", Vals: lowCard},
		{Name: "mono", Vals: mono},
		{Name: "region", Vals: region},
	}
}

// decodeCol decodes one column of a materialized table.
func decodeCol(t *testing.T, tab *colstore.Table, name string) []int32 {
	t.Helper()
	return tab.MustColumn(name).DecodeAll(nil, nil)
}

// TestAppendRoundTrip appends twice to a table whose tail segment is
// partial both times, and verifies: values round-trip bit-identically
// (live directory and cold reopen), every interior segment stays exactly
// BlockSize rows, the old directory snapshot is unaffected, and the append
// counters tick.
func TestAppendRoundTrip(t *testing.T) {
	rows := colstore.BlockSize + 500 // partial tail from the start
	tab := buildTestTable(t, rows)
	st, path := saveTestStore(t, tab, 0)

	want := map[string][]int32{}
	for _, name := range tab.ColumnNames() {
		want[name] = decodeCol(t, tab, name)
	}
	snapshot, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	snapRows := snapshot.NumRows()

	appends := [][]AppendColumn{
		appendCols(70000, int32(rows/3), true, 1), // > one block: tail top-up + new blocks + partial tail
		appendCols(333, int32((rows+70000)/3), true, 2),
	}
	for ai, cols := range appends {
		if err := st.Append("t", cols, Checkpoint{}); err != nil {
			t.Fatalf("append %d: %v", ai, err)
		}
		for _, c := range cols {
			want[c.Name] = append(want[c.Name], c.Vals...)
		}
	}

	check := func(label string, s *Store) {
		t.Helper()
		got, err := s.Table("t")
		if err != nil {
			t.Fatalf("%s: Table: %v", label, err)
		}
		if got.NumRows() != rows+70000+333 {
			t.Fatalf("%s: NumRows = %d want %d", label, got.NumRows(), rows+70000+333)
		}
		for name, w := range want {
			col := got.MustColumn(name)
			for i := 0; i < col.NumBlocks()-1; i++ {
				if col.BlockLen(i) != colstore.BlockSize {
					t.Fatalf("%s: column %q interior segment %d has %d rows", label, name, i, col.BlockLen(i))
				}
			}
			g := col.DecodeAll(nil, nil)
			if len(g) != len(w) {
				t.Fatalf("%s: column %q has %d values, want %d", label, name, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%s: column %q value %d = %d, want %d", label, name, i, g[i], w[i])
				}
			}
		}
		// The ascending append preserves the primary sort; zone maps must
		// still prune.
		if got.MustColumn("sorted").Sorted != colstore.PrimarySort {
			t.Errorf("%s: ascending append demoted the primary sort", label)
		}
	}
	check("live", st)

	// The snapshot taken before the appends still reads its own rows —
	// including its (replaced) partial tail, via its retained frame id.
	if snapshot.NumRows() != snapRows {
		t.Fatalf("pre-append snapshot grew from %d to %d rows", snapRows, snapshot.NumRows())
	}
	for _, name := range []string{"sorted", "mono"} {
		g := decodeCol(t, snapshot, name)
		for i := range g {
			if g[i] != want[name][i] {
				t.Fatalf("snapshot column %q value %d changed after append", name, i)
			}
		}
	}

	ps := st.Pool().Stats()
	if ps.Appends != 2 || ps.AppendedBytes == 0 {
		t.Errorf("append counters: %d passes / %d bytes, want 2 passes and nonzero bytes", ps.Appends, ps.AppendedBytes)
	}

	st2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("cold reopen: %v", err)
	}
	defer st2.Close()
	check("cold", st2)
}

// TestAppendDemotesSortKind verifies that an append breaking ascending
// order demotes the primary sort in the new directory while the pre-append
// snapshot keeps it (its data really is sorted).
func TestAppendDemotesSortKind(t *testing.T) {
	tab := buildTestTable(t, colstore.BlockSize+100)
	st, path := saveTestStore(t, tab, 0)
	before, _ := st.Table("t")

	if err := st.Append("t", appendCols(1000, 50, false, 3), Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	after, _ := st.Table("t")
	if after.MustColumn("sorted").Sorted != colstore.Unsorted {
		t.Error("out-of-order append kept PrimarySort — sorted-filter fast path would return wrong results")
	}
	if before.MustColumn("sorted").Sorted != colstore.PrimarySort {
		t.Error("pre-append snapshot lost its sort kind")
	}
	st2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cold, _ := st2.Table("t")
	if cold.MustColumn("sorted").Sorted != colstore.Unsorted {
		t.Error("demotion not persisted in the rewritten footer")
	}
}

// TestAppendValidation covers the append error paths: wrong column set,
// ragged lengths, unknown table, empty batch.
func TestAppendValidation(t *testing.T) {
	tab := buildTestTable(t, 1000)
	st, _ := saveTestStore(t, tab, 0)
	cases := []struct {
		name string
		tab  string
		cols []AppendColumn
		want string
	}{
		{"missing column", "t", []AppendColumn{{Name: "sorted", Vals: []int32{1}}}, "has 4"},
		{"unknown table", "nope", appendCols(10, 0, true, 1), "no table"},
		{"empty", "t", []AppendColumn{{Name: "sorted"}, {Name: "lowcard"}, {Name: "mono"}, {Name: "region"}}, "at least one row"},
		{"ragged", "t", []AppendColumn{
			{Name: "sorted", Vals: []int32{1, 2}}, {Name: "lowcard", Vals: []int32{1}},
			{Name: "mono", Vals: []int32{1, 2}}, {Name: "region", Vals: []int32{0, 0}},
		}, "others have"},
	}
	for _, tc := range cases {
		err := st.Append(tc.tab, tc.cols, Checkpoint{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOpenRejectsUndersizedBudget pins the livelock guard: a bounded budget
// smaller than the largest single segment must be rejected at open with an
// actionable message, while a budget clearing every segment (or an
// unbounded one) opens fine.
func TestOpenRejectsUndersizedBudget(t *testing.T) {
	tab := buildTestTable(t, 2*colstore.BlockSize)
	_, path := saveTestStore(t, tab, 0)

	if _, err := Open(path, 1024); err == nil || !strings.Contains(err.Error(), "smaller than the largest segment") {
		t.Fatalf("1KB budget: err = %v, want largest-segment rejection", err)
	}
	// No segment can exceed a fully decoded block plus wire framing.
	generous := int64(colstore.BlockSize*4 + 1024)
	st2, err := Open(path, generous)
	if err != nil {
		t.Fatalf("budget %d open: %v", generous, err)
	}
	st2.Close()
	st3, err := Open(path, 0)
	if err != nil {
		t.Fatalf("unbounded open: %v", err)
	}
	st3.Close()
}

// TestTornAppendRecovery pins crash safety: a crash mid-append leaves the
// previous trailer intact but not at EOF. Open must recover the pre-append
// state by backward scan (losing only the interrupted batch), and a
// writable reopen trims the torn tail so a follow-up append works.
func TestTornAppendRecovery(t *testing.T) {
	tab := buildTestTable(t, colstore.BlockSize+500)
	st, path := saveTestStore(t, tab, 0)
	if err := st.Append("t", appendCols(2000, int32((colstore.BlockSize+500)/3), true, 4), Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	rowsAfterFirst := colstore.BlockSize + 500 + 2000
	st.Close()

	// Simulate a crash partway through a second append: garbage payload
	// bytes land after the trailer, but no valid new trailer does.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xAB, 0x00, 0x55}, 4321)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(path, 0)
	if err != nil {
		t.Fatalf("open after torn append: %v (the previous trailer must be recovered)", err)
	}
	got, err := re.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != rowsAfterFirst {
		t.Fatalf("recovered table has %d rows, want %d", got.NumRows(), rowsAfterFirst)
	}
	// The writable reopen self-healed: the next append must round-trip.
	if err := re.Append("t", appendCols(100, int32(rowsAfterFirst/3), true, 5), Checkpoint{}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	re.Close()
	re2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen after healed append: %v", err)
	}
	defer re2.Close()
	got2, _ := re2.Table("t")
	if got2.NumRows() != rowsAfterFirst+100 {
		t.Fatalf("post-heal table has %d rows, want %d", got2.NumRows(), rowsAfterFirst+100)
	}
}
