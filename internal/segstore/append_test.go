package segstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
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

// TestAppendReferencesDictionaries pins what an append writes: a footer that
// references the dictionaries the file already holds instead of repeating
// them. Over k appends and checkpoints on a table whose dictionary is large,
// the file grows by at most the payload plus k dictionary-free footers and
// trailers; a reopen resolves the references to the original values; a torn
// last append recovers to the previous footer, whose references still
// resolve; and a flipped byte inside a referenced range fails Open naming the
// column.
func TestAppendReferencesDictionaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := make([]string, 20000)
	for i := range names {
		names[i] = fmt.Sprintf("Customer#%09d %08x", i, rng.Uint32())
	}
	dict := compress.BuildDict(names)
	rows := colstore.BlockSize + 500
	strs := make([]string, rows)
	for i := range strs {
		strs[i] = names[rng.Intn(len(names))]
	}
	small, tab := buildTestTable(t, rows), colstore.NewTable("t")
	for _, name := range []string{"sorted", "lowcard", "mono"} {
		tab.AddColumn(small.MustColumn(name))
	}
	tab.AddColumn(colstore.NewColumn("region", dict.Encode(strs, nil), dict, colstore.Unsorted, true))
	st, path := saveTestStore(t, tab, 0)

	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// dictFree is the live footer's size with every dictionary reduced to a
	// reference.
	dictFree := func() int64 {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		footer, at := footerOf(raw)
		metas, err := decodeFooter(footer, at, readFrom(raw))
		if err != nil {
			t.Fatal(err)
		}
		refs := 0
		for _, c := range metas[0].cols {
			if c.dict != nil {
				c.dict, refs = nil, refs+1
			}
		}
		stripped, _ := encodeFooter(metas)
		return int64(len(stripped) + refs*(8+8+4))
	}
	inlineBytes := int64(st.tables["t"].cols[3].dictAt.n)
	if inlineBytes < 500_000 {
		t.Fatalf("dictionary is %d bytes inline; the test needs a large one", inlineBytes)
	}

	// Commits alternate checkpoint, append, ..., ending with an append.
	const k = 6
	appended := func(i int) int { return 3000 + 30000*i }
	var prevSize int64
	for i := 0; i < k; i++ {
		before, payloadBefore := size(), st.Pool().Stats().AppendedBytes
		if i%2 == 1 {
			n := appended(i)
			if err := st.Append("t", appendCols(n, int32(rows/3), true, int64(20+i)), Checkpoint{LogRows: int64(rows)}); err != nil {
				t.Fatal(err)
			}
			rows += n
		} else if err := st.SetCheckpoint("t", Checkpoint{LogRows: int64(rows), Deleted: deleted(rows, [2]int{i, 2*i + 1})}); err != nil {
			t.Fatal(err)
		}
		payload := st.Pool().Stats().AppendedBytes - payloadBefore
		if grew, bound := size()-before, payload+dictFree()+20; grew > bound {
			t.Fatalf("commit %d grew the file by %d B; payload %d B + dictionary-free footer and trailer allow %d B", i, grew, payload, bound)
		}
		if i == k-2 {
			prevSize = size()
		}
	}
	loc := st.tables["t"].cols[3].dictAt
	st.Close()

	check := func(label, p string, wantRows int) {
		t.Helper()
		re, err := OpenWith(p, OpenOptions{Log: func(string) {}})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer re.Close()
		got, err := re.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != wantRows {
			t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), wantRows)
		}
		if !slices.Equal(got.MustColumn("region").Dict.Values(), dict.Values()) {
			t.Fatalf("%s: the reopened dictionary differs from the original", label)
		}
	}
	check("reopen", path, rows)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last commit was an append: cut the file halfway through it.
	torn := filepath.Join(t.TempDir(), "torn.seg")
	if err := os.WriteFile(torn, raw[:prevSize+(int64(len(raw))-prevSize)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn last append", torn, rows-appended(k-1))

	flipped := filepath.Join(t.TempDir(), "flipped.seg")
	raw[loc.off+loc.n/2] ^= 0x20
	if err := os.WriteFile(flipped, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(flipped, 0); err == nil {
		re.Close()
		t.Fatal("a store whose referenced dictionary is corrupt opened")
	} else if !strings.Contains(err.Error(), `table "t" column "region"`) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt referenced dictionary: err = %v, want a checksum error naming the column", err)
	}
}

// TestCommitPlacesInlineDictionary covers a dictionary with no known copy in
// the file: commit writes it inline once, records where, and the next footer
// references that copy instead of writing it again.
func TestCommitPlacesInlineDictionary(t *testing.T) {
	tab := buildTestTable(t, 1000)
	st, path := saveTestStore(t, tab, 0)
	region := st.tables["t"].cols[3]
	region.dictAt = dictLoc{}
	footerLen := func() int {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		footer, _ := footerOf(raw)
		return len(footer)
	}
	before := st.writeEnd
	if err := st.SetCheckpoint("t", Checkpoint{LogRows: 1}); err != nil {
		t.Fatal(err)
	}
	placed, inlineLen := region.dictAt, footerLen()
	if placed.n == 0 || placed.off < uint64(before) {
		t.Fatalf("the dictionary written inline was not placed in the new footer: %+v (footer starts past %d)", placed, before)
	}
	if err := st.SetCheckpoint("t", Checkpoint{LogRows: 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := footerLen(), inlineLen-int(placed.n)+8+8+4; got != want || region.dictAt != placed {
		t.Fatalf("next footer is %d B, want %d with a reference to %+v (have %+v)", got, want, placed, region.dictAt)
	}
	re, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.MustColumn("region").Dict.Values(), tab.MustColumn("region").Dict.Values()) {
		t.Fatal("the reopened dictionary differs from the original")
	}
}
