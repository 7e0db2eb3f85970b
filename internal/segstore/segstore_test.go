package segstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
)

// buildTestTable makes a table with enough rows for several segments per
// column: a sorted column (zone-map friendly), a low-cardinality column, a
// near-monotonic column, and a dictionary column.
func buildTestTable(t testing.TB, rows int) *colstore.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sorted := make([]int32, rows)
	lowCard := make([]int32, rows)
	mono := make([]int32, rows)
	strs := make([]string, rows)
	names := []string{"ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"}
	v := int32(0)
	for i := range sorted {
		sorted[i] = int32(i / 3)
		lowCard[i] = rng.Int31n(4)
		v += rng.Int31n(50)
		mono[i] = v
		strs[i] = names[rng.Intn(len(names))]
	}
	dict := compress.BuildDict(strs)
	tab := colstore.NewTable("t")
	tab.AddColumn(colstore.NewColumn("sorted", sorted, nil, colstore.PrimarySort, true))
	tab.AddColumn(colstore.NewColumn("lowcard", lowCard, nil, colstore.Unsorted, true))
	tab.AddColumn(colstore.NewColumn("mono", mono, nil, colstore.Unsorted, true))
	tab.AddColumn(colstore.NewColumn("region", dict.Encode(strs, nil), dict, colstore.Unsorted, true))
	return tab
}

func saveTestStore(t *testing.T, tab *colstore.Table, budget int64) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.seg")
	if err := Save(path, 0.5, []*colstore.Table{tab}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := Open(path, budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

// TestRoundTrip writes a multi-segment table and verifies every column
// decodes bit-identically through the pool, with zone maps, encodings, sort
// kinds and the dictionary preserved.
func TestRoundTrip(t *testing.T) {
	rows := 3*colstore.BlockSize + 1234
	tab := buildTestTable(t, rows)
	st, _ := saveTestStore(t, tab, 0)

	if st.SF() != 0.5 {
		t.Errorf("SF = %v want 0.5", st.SF())
	}
	got, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != rows {
		t.Fatalf("NumRows = %d want %d", got.NumRows(), rows)
	}
	for _, name := range tab.ColumnNames() {
		want := tab.MustColumn(name)
		gcol := got.MustColumn(name)
		if gcol.Sorted != want.Sorted {
			t.Errorf("%s: sort kind %d want %d", name, gcol.Sorted, want.Sorted)
		}
		if (gcol.Dict == nil) != (want.Dict == nil) {
			t.Fatalf("%s: dictionary presence differs", name)
		}
		if gcol.Dict != nil && gcol.Dict.Size() != want.Dict.Size() {
			t.Errorf("%s: dictionary size %d want %d", name, gcol.Dict.Size(), want.Dict.Size())
		}
		if gcol.NumBlocks() != want.NumBlocks() {
			t.Fatalf("%s: %d blocks want %d", name, gcol.NumBlocks(), want.NumBlocks())
		}
		for bi := 0; bi < want.NumBlocks(); bi++ {
			wmn, wmx := want.BlockMinMax(bi)
			gmn, gmx := gcol.BlockMinMax(bi)
			if wmn != gmn || wmx != gmx {
				t.Errorf("%s block %d: zone map [%d,%d] want [%d,%d]", name, bi, gmn, gmx, wmn, wmx)
			}
			if gcol.BlockEncoding(bi) != want.BlockEncoding(bi) {
				t.Errorf("%s block %d: encoding %v want %v", name, bi, gcol.BlockEncoding(bi), want.BlockEncoding(bi))
			}
			if gcol.BlockBytes(bi) != want.BlockBytes(bi) {
				t.Errorf("%s block %d: bytes %d want %d", name, bi, gcol.BlockBytes(bi), want.BlockBytes(bi))
			}
		}
		wv := want.DecodeAll(nil, nil)
		gv := gcol.DecodeAll(nil, nil)
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("%s: value %d = %d want %d", name, i, gv[i], wv[i])
			}
		}
	}
}

// TestLogicalIOMatchesResident pins the accounting split: a filter over a
// pool-backed column must charge exactly the logical I/O the resident
// column charges, regardless of pool hits or misses.
func TestLogicalIOMatchesResident(t *testing.T) {
	tab := buildTestTable(t, 2*colstore.BlockSize+99)
	st, _ := saveTestStore(t, tab, 0)
	got, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tab.ColumnNames() {
		var a, b iosim.Stats
		p := compress.Between(1, 3)
		wantPos := tab.MustColumn(name).Filter(p, &a)
		gotPos := got.MustColumn(name).Filter(p, &b)
		if a != b {
			t.Errorf("%s: logical I/O %+v want %+v", name, b, a)
		}
		if wantPos.Len() != gotPos.Len() {
			t.Errorf("%s: %d matches want %d", name, gotPos.Len(), wantPos.Len())
		}
	}
}

// TestZoneMapPruning runs a selective range filter over the sorted column
// and requires interior/excluded segments to never be fetched: the pool
// must record fewer misses than the column has segments.
func TestZoneMapPruning(t *testing.T) {
	tab := buildTestTable(t, 5*colstore.BlockSize)
	st, _ := saveTestStore(t, tab, 0)
	got, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	col := got.MustColumn("sorted")
	if col.NumBlocks() != 5 {
		t.Fatalf("want 5 segments, got %d", col.NumBlocks())
	}
	// Values are i/3 ascending: pick a range inside segment 2 only.
	lo := int32(2*colstore.BlockSize/3) + 10
	pos := col.Filter(compress.Between(lo, lo+100), nil)
	if pos.Len() == 0 {
		t.Fatal("selective filter matched nothing")
	}
	ps := st.Pool().Stats()
	if ps.Misses >= int64(col.NumBlocks()) {
		t.Errorf("pruning ineffective: %d segment fetches for a 1-of-%d-segment range", ps.Misses, col.NumBlocks())
	}
	if ps.Misses == 0 {
		t.Error("expected at least the boundary segment to be fetched")
	}
}

// TestCorruptPayloadDetected flips one byte in a segment payload; the next
// acquire of that segment must fail with an error naming table, column and
// segment, and the executor-facing column must panic rather than return
// wrong values.
func TestCorruptPayloadDetected(t *testing.T) {
	tab := buildTestTable(t, colstore.BlockSize+50)
	st, path := saveTestStore(t, tab, 0)
	st.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(Magic)+8+100] ^= 0xFF // inside the first segment payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path, 0) // footer is intact, open succeeds
	if err != nil {
		t.Fatalf("Open after payload corruption should succeed (lazy reads): %v", err)
	}
	defer st2.Close()
	_, _, _, err = st2.loadSegment(SegKey{Col: 0, Seg: 0})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") ||
		!strings.Contains(err.Error(), `column "sorted"`) {
		t.Fatalf("corrupt payload error = %v", err)
	}

	got, err := st2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a corrupt segment through a column should panic")
		}
	}()
	got.MustColumn("sorted").DecodeAll(nil, nil)
}

// TestCorruptFraming exercises every framing error path: short file, bad
// head magic, bad tail magic, footer checksum, truncated footer length.
func TestCorruptFraming(t *testing.T) {
	tab := buildTestTable(t, 500)
	_, path := saveTestStore(t, tab, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) string {
		p := filepath.Join(t.TempDir(), "bad.seg")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"short", func(b []byte) []byte { return b[:10] }, "too short"},
		{"head-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
		{"tail-magic", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, "bad trailing magic"},
		{"footer-crc", func(b []byte) []byte { b[len(b)-30] ^= 0xFF; return b }, "footer checksum mismatch"},
		{"footer-len", func(b []byte) []byte {
			b[len(b)-9] = 0xFF // blow up the footer length field
			return b
		}, "footer length"},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-4] }, "bad trailing magic"},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), raw...)
		_, err := Open(write(tc.mutate(buf)), 0)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSegmentBoundsOverflowRejected crafts a footer whose first segment
// carries off+plen chosen to wrap uint64 arithmetic back inside the payload
// region (with the footer CRC recomputed so only the bounds check can
// object). Open must reject it instead of deferring to a fatal huge
// allocation at first acquire.
func TestSegmentBoundsOverflowRejected(t *testing.T) {
	tab := buildTestTable(t, 500)
	_, path := saveTestStore(t, tab, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := binary.LittleEndian.Uint64(raw[len(raw)-16 : len(raw)-8])
	footerStart := len(raw) - 20 - int(footerLen)
	// Walk to the first column's first segment entry: ntables u32,
	// table nameLen u16 + "t", ncols u32, col nameLen u16 + "sorted",
	// sort u8, dict flag u8, nsegs u32 -> off u64, plen u64.
	segOff := footerStart + 4 + 2 + 1 + 4 + 2 + 6 + 1 + 1 + 4
	binary.LittleEndian.PutUint64(raw[segOff:], 1<<63)       // off
	binary.LittleEndian.PutUint64(raw[segOff+8:], 1<<63+200) // plen: sum wraps small
	footer := raw[footerStart : footerStart+int(footerLen)]
	binary.LittleEndian.PutUint32(raw[len(raw)-20:], crc32.ChecksumIEEE(footer))
	bad := filepath.Join(t.TempDir(), "overflow.seg")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 0); err == nil || !strings.Contains(err.Error(), "outside file payload region") {
		t.Fatalf("overflowing segment bounds accepted: err = %v", err)
	}
}

// TestOpenRejectsRetiredEncodingTags re-encodes a valid store's footer with
// one segment's encoding tag changed (footer CRC recomputed, so only the tag
// check can object). Tags 3 and 4 are what a store written before the delta
// and bit-vector encodings were retired can hold: Open must refuse the file
// — no partial *Store, no error deferred to the first query that reaches the
// block — naming the file, table, column and segment and saying to
// regenerate. A tag never assigned is refused as unknown.
func TestOpenRejectsRetiredEncodingTags(t *testing.T) {
	tab := buildTestTable(t, 500)
	_, path := saveTestStore(t, tab, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint64(raw[len(raw)-16 : len(raw)-8]))
	footerStart := len(raw) - 20 - footerLen
	for tag, wantErr := range map[compress.Encoding]string{
		3:  "retired encoding (delta/bitvec) — regenerate the store with ssb-gen -out",
		4:  "retired encoding (delta/bitvec) — regenerate the store with ssb-gen -out",
		99: "unknown encoding tag 99",
	} {
		metas, err := decodeFooter(raw[footerStart:footerStart+footerLen], int64(footerStart), readFrom(raw))
		if err != nil {
			t.Fatal(err)
		}
		metas[0].cols[2].segs[0].enc = tag // t.mono, segment 0
		// Rewritten in place, the footer keeps its dictionary inline.
		metas[0].cols[3].dictAt = dictLoc{}
		buf := append([]byte(nil), raw...)
		footer, _ := encodeFooter(metas)
		if len(footer) != footerLen {
			t.Fatalf("re-encoded footer is %d bytes, was %d", len(footer), footerLen)
		}
		copy(buf[footerStart:], footer)
		binary.LittleEndian.PutUint32(buf[len(buf)-20:], crc32.ChecksumIEEE(footer))
		bad := filepath.Join(t.TempDir(), "retired.seg")
		if err := os.WriteFile(bad, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(bad, 0)
		if err == nil {
			st.Close()
			t.Fatalf("tag %d: store opened", tag)
		}
		if st != nil {
			t.Errorf("tag %d: Open returned a store beside its error", tag)
		}
		for _, want := range []string{bad, `table "t" column "mono" segment 0`, wantErr} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("tag %d: error %q does not contain %q", tag, err, want)
			}
		}
	}
}

// TestSaveAtomic verifies a failed save leaves no temp file and Save is
// atomic.
func TestSaveAtomic(t *testing.T) {
	tab := buildTestTable(t, 100)
	path := filepath.Join(t.TempDir(), "x.seg")
	if err := Save(path, 0.1, []*colstore.Table{tab}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// TestSaveSurfacesFailures makes two of Save's steps fail: a rename onto a
// directory, and the directory fsync after a good rename. Each surfaces as
// Save's error, and the failed rename leaves no temp file.
func TestSaveSurfacesFailures(t *testing.T) {
	tab := buildTestTable(t, 100)
	dir := t.TempDir()

	blocked := filepath.Join(dir, "blocked.seg")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(blocked, 0.1, []*colstore.Table{tab}); err == nil {
		t.Fatal("Save onto a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("a failed rename left its temp file")
	}

	injected := errors.New("injected directory fsync failure")
	failSync := func(string) error { return injected }
	if err := save(filepath.Join(dir, "x.seg"), 0.1, []*colstore.Table{tab}, failSync); !errors.Is(err, injected) {
		t.Fatalf("save = %v, want the directory fsync's error", err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir on a missing directory returned nil")
	}
}
