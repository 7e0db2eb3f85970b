package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
)

// deleted builds an n-row deletion vector with the given [start, end) runs.
func deleted(n int, runs ...[2]int) *bitmap.Bitmap {
	b := bitmap.New(n)
	for _, r := range runs {
		b.SetRange(r[0], r[1])
	}
	return b
}

// sameBits reports whether two deletion vectors mark the same rows (nil is
// the empty vector).
func sameBits(a, b *bitmap.Bitmap) bool {
	var pa, pb []int32
	if a != nil {
		pa = a.AppendPositions(nil)
	}
	if b != nil {
		pb = b.AppendPositions(nil)
	}
	return reflect.DeepEqual(pa, pb)
}

// TestCheckpointRoundTrip pins the footer's recovery record: an append and
// a footer-only SetCheckpoint each persist the table's log rows and deletion
// vector, a cold reopen reads back exactly what the last footer recorded,
// other tables keep theirs, a torn SetCheckpoint falls back to the previous
// one, and a vector marking rows past the table's end is refused.
func TestCheckpointRoundTrip(t *testing.T) {
	rows := colstore.BlockSize + 500
	st, path := saveTestStore(t, buildTestTable(t, rows), 0)
	if ck, err := st.Checkpoint("t"); err != nil || ck.LogRows != 0 || ck.Deleted != nil {
		t.Fatalf("fresh store checkpoint = %+v, %v; want zero", ck, err)
	}
	if _, err := st.Checkpoint("nope"); err == nil {
		t.Fatal("checkpoint of an unknown table succeeded")
	}

	grown := rows + 2000
	first := Checkpoint{LogRows: 2100, Deleted: deleted(rows, [2]int{0, 1}, [2]int{63, 130}, [2]int{rows - 1, rows})}
	if err := st.Append("t", appendCols(2000, int32(rows/3), true, 1), first); err != nil {
		t.Fatal(err)
	}
	second := Checkpoint{LogRows: 2100, Deleted: deleted(grown, [2]int{0, 1}, [2]int{63, 130}, [2]int{rows - 1, rows + 7})}
	if err := st.SetCheckpoint("t", second); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCheckpoint("t", Checkpoint{Deleted: deleted(grown+1, [2]int{grown, grown + 1})}); err == nil || !strings.Contains(err.Error(), "marks row") {
		t.Fatalf("vector past the table's end: err = %v", err)
	}
	check := func(label string, s *Store, want Checkpoint) {
		t.Helper()
		ck, err := s.Checkpoint("t")
		if err != nil {
			t.Fatal(err)
		}
		if ck.LogRows != want.LogRows || !sameBits(ck.Deleted, want.Deleted) {
			t.Fatalf("%s: checkpoint log rows %d, %d deleted; want %d, %d", label, ck.LogRows, ck.Deleted.Count(), want.LogRows, want.Deleted.Count())
		}
		if ck.Deleted.Len() != grown {
			t.Fatalf("%s: deletion vector covers %d rows, table has %d", label, ck.Deleted.Len(), grown)
		}
	}
	check("live", st, second)
	re, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("cold", re, second)
	re.Close()

	// A torn footer-only checkpoint leaves the previous footer as the newest
	// valid one.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, raw[len(raw)-200:len(raw)-9]...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = Open(path, 0)
	if err != nil {
		t.Fatalf("open after torn checkpoint: %v", err)
	}
	defer re.Close()
	check("recovered", re, second)
}

// TestCheckpointKeepsOtherTables checks a checkpoint on one table leaves
// every other table's recorded checkpoint as it was.
func TestCheckpointKeepsOtherTables(t *testing.T) {
	a, b := buildTestTable(t, 300), buildTestTable(t, 200)
	b.Name = "u"
	path := filepath.Join(t.TempDir(), "two.seg")
	if err := Save(path, 1, []*colstore.Table{a, b}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SetCheckpoint("u", Checkpoint{LogRows: 5, Deleted: deleted(200, [2]int{3, 9})}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCheckpoint("t", Checkpoint{LogRows: 7}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	u, _ := re.Checkpoint("u")
	tc, _ := re.Checkpoint("t")
	if u.LogRows != 5 || !sameBits(u.Deleted, deleted(200, [2]int{3, 9})) || tc.LogRows != 7 || tc.Deleted != nil {
		t.Fatalf("checkpoints after reopen: u=%d/%v t=%d/%v", u.LogRows, u.Deleted, tc.LogRows, tc.Deleted)
	}
}

// TestOpenRejectsEarlierFormat pins the format version: a store whose magic
// is version 1 (footers without a checkpoint) fails closed at Open, naming
// the file and saying to regenerate it.
func TestOpenRejectsEarlierFormat(t *testing.T) {
	_, path := saveTestStore(t, buildTestTable(t, 100), 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, magicV1)
	copy(raw[len(raw)-len(Magic):], magicV1)
	old := filepath.Join(t.TempDir(), "v1.seg")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(old, 0)
	if err == nil {
		st.Close()
		t.Fatal("a version-1 store opened")
	}
	for _, want := range []string{old, "earlier build", "regenerate the store with ssb-gen -out"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// footerOf returns a store file's live footer bytes and their offset.
func footerOf(raw []byte) ([]byte, int64) {
	n := int(binary.LittleEndian.Uint64(raw[len(raw)-16 : len(raw)-8]))
	at := len(raw) - 20 - n
	return raw[at : at+n], int64(at)
}

// readFrom resolves dictionary references against a file's bytes.
func readFrom(raw []byte) func(off int64, n int) ([]byte, error) {
	return func(off int64, n int) ([]byte, error) {
		if off < 0 || n < 0 || off > int64(len(raw))-int64(n) {
			return nil, fmt.Errorf("read [%d,+%d) past EOF %d", off, n, len(raw))
		}
		return raw[off : off+int64(n)], nil
	}
}

// FuzzFooter feeds arbitrary bytes to the footer decoder as the live footer
// of a seed file that has been appended to, seeded with valid footers that
// carry checkpoints (log rows, deletion runs) and dictionary references, and
// with references that must fail: into their own footer, past EOF, with a
// wrong CRC; and with dictionaries out of order or duplicated, which must
// fail too. The contract: an error, never a panic, and no allocation sized
// by a count the bytes cannot back (every count is bounded by the bytes left
// to read, every reference by the file before its footer). A footer that
// decodes re-encodes, appended after it, to one that decodes to the same
// directory and references the same dictionary bytes.
func FuzzFooter(f *testing.F) {
	tab := buildTestTable(f, colstore.BlockSize+300)
	path := filepath.Join(f.TempDir(), "seed.seg")
	if err := Save(path, 1, []*colstore.Table{tab}); err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	st, err := Open(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	rows := colstore.BlockSize + 300
	if err := st.Append("t", appendCols(500, int32(rows/3), true, 9), Checkpoint{LogRows: 500}); err != nil {
		f.Fatal(err)
	}
	rows += 500
	if err := st.SetCheckpoint("t", Checkpoint{LogRows: 1 << 40, Deleted: deleted(rows, [2]int{0, 2}, [2]int{64, 65}, [2]int{rows - 3, rows})}); err != nil {
		f.Fatal(err)
	}
	st.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	withCk, at := footerOf(raw)
	inline, baseAt := footerOf(base)
	f.Add(withCk)
	f.Add(inline)
	f.Add(withCk[:len(withCk)-5]) // a run cut short
	f.Add([]byte{})
	bad := append([]byte(nil), withCk...)
	binary.LittleEndian.PutUint32(bad[len(bad)-28:], 1<<31) // implausible run count (three runs follow it)
	f.Add(bad)
	// Broken references to the "region" dictionary, each refused naming the
	// column and the fault.
	for _, bc := range []struct {
		want     string
		breakRef func(l *dictLoc)
	}{
		{"not within", func(l *dictLoc) { l.off = uint64(at) }},            // into its own footer
		{"not within", func(l *dictLoc) { l.off = uint64(len(raw)) + 64 }}, // past EOF
		{"checksum mismatch", func(l *dictLoc) { l.crc ^= 1 }},             // wrong CRC
		{"not one dictionary", func(l *dictLoc) { l.n += 4 }},              // trailing bytes
	} {
		metas, err := decodeFooter(withCk, at, readFrom(raw))
		if err != nil {
			f.Fatal(err)
		}
		l := &metas[0].cols[3].dictAt
		bc.breakRef(l)
		if bc.want == "not one dictionary" {
			l.crc = crc32.ChecksumIEEE(raw[l.off : l.off+l.n])
		}
		footer, _ := encodeFooter(metas)
		_, err = decodeFooter(footer, at, readFrom(raw))
		if err == nil || !strings.Contains(err.Error(), `table "t" column "region"`) || !strings.Contains(err.Error(), bc.want) {
			f.Fatalf("broken dictionary reference: err = %v, want one naming the column and saying %q", err, bc.want)
		}
		f.Add(footer)
	}
	// Dictionaries stored out of order or with a duplicate are refused naming
	// the column, inline and referenced alike: re-sorting them would remap
	// the codes their segments hold. A first value "" is in order.
	withDict := func(vals []string, patch byte) ([]byte, dictLoc) {
		metas, err := decodeFooter(inline, baseAt, readFrom(base))
		if err != nil {
			f.Fatal(err)
		}
		c := metas[0].cols[3]
		c.dict, c.dictAt = compress.BuildDict(vals), dictLoc{}
		footer, placed := encodeFooter(metas)
		loc := placed[0].at
		if patch != 0 {
			// The second value's one byte: count, length, value 0, length.
			footer[loc.off+4+4+uint64(len(vals[0]))+4] = patch
		}
		return footer, loc
	}
	for _, bc := range []struct {
		name  string
		vals  []string
		patch byte
	}{
		{"descending", []string{"b", "c"}, 'a'},
		{"duplicate", []string{"b", "c"}, 'b'},
		{"empty first", []string{"", "c"}, 0},
	} {
		footer, loc := withDict(bc.vals, bc.patch)
		metas, err := decodeFooter(footer, baseAt, readFrom(base))
		if bc.patch == 0 {
			if err != nil || metas[0].cols[3].dict.Value(0) != "" {
				f.Fatalf("%s: err = %v, want the dictionary accepted", bc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), `table "t" column "region"`) || !strings.Contains(err.Error(), "not above") {
			f.Fatalf("%s inline dictionary: err = %v, want one naming the column and the order", bc.name, err)
		}
		f.Add(footer)
		// The same bytes referenced from a later footer: a file holding
		// only the header and them.
		dict := footer[loc.off : loc.off+loc.n]
		file := append(append([]byte(nil), base[:headerLen]...), dict...)
		metas, err = decodeFooter(inline, baseAt, readFrom(base))
		if err != nil {
			f.Fatal(err)
		}
		metas[0].cols[3].dictAt = dictLoc{off: uint64(headerLen), n: loc.n, crc: crc32.ChecksumIEEE(dict)}
		ref, _ := encodeFooter(metas)
		_, err = decodeFooter(ref, int64(len(file)), readFrom(file))
		if (err == nil) != (bc.patch == 0) || err != nil && (!strings.Contains(err.Error(), `table "t" column "region"`) || !strings.Contains(err.Error(), "not above")) {
			f.Fatalf("%s referenced dictionary: err = %v", bc.name, err)
		}
	}
	// Intact referenced bytes that do not lie before the footer naming them:
	// the appended footer read as if it sat where the base footer does.
	if _, err := decodeFooter(withCk, baseAt, readFrom(raw)); err == nil || !strings.Contains(err.Error(), "not within") {
		f.Fatalf("a reference past its footer's start: err = %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		metas, err := decodeFooter(data, at, readFrom(raw))
		if err != nil {
			return
		}
		// Append the re-encoded footer after this one, as a commit would:
		// every dictionary now lies in the file before it.
		file := append(append(append([]byte(nil), raw[:at]...), data...), make([]byte, 20)...)
		footer, placed := encodeFooter(metas)
		if len(placed) != 0 {
			t.Fatalf("re-encoded footer wrote %d dictionaries inline, want references only", len(placed))
		}
		again, err := decodeFooter(footer, int64(len(file)), readFrom(file))
		if err != nil {
			t.Fatalf("re-encoded footer does not decode: %v", err)
		}
		if len(again) != len(metas) {
			t.Fatalf("re-encoded footer has %d tables, want %d", len(again), len(metas))
		}
		for i := range metas {
			if again[i].logRows != metas[i].logRows || !reflect.DeepEqual(again[i].deleted, metas[i].deleted) {
				t.Fatalf("table %d checkpoint changed across re-encoding", i)
			}
			for j, c := range metas[i].cols {
				d := again[i].cols[j]
				if d.dictAt != c.dictAt || (c.dict == nil) != (d.dict == nil) || c.dict != nil && !slices.Equal(c.dict.Values(), d.dict.Values()) {
					t.Fatalf("table %d column %q: dictionary changed across re-encoding (at %+v, was %+v)", i, c.name, d.dictAt, c.dictAt)
				}
			}
		}
		// The checkpoint a reader builds from the footer stays inside the
		// table.
		for _, tm := range metas {
			if d := tm.checkpoint().Deleted; d != nil && uint64(d.Len()) != tm.rows() {
				t.Fatalf("table %q: deletion vector covers %d rows, table has %d", tm.name, d.Len(), tm.rows())
			}
		}
	})
}
