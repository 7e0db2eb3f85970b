package segstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
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

// footerOf returns a store file's live footer bytes.
func footerOf(raw []byte) []byte {
	n := int(binary.LittleEndian.Uint64(raw[len(raw)-16 : len(raw)-8]))
	return raw[len(raw)-20-n : len(raw)-20]
}

// FuzzFooter feeds arbitrary bytes to the footer decoder, seeded with valid
// footers that carry checkpoints (log rows, deletion runs). The contract:
// an error, never a panic, and no allocation sized by a count the bytes
// cannot back (every count is bounded by the bytes left to read). A footer
// that decodes re-encodes to one that decodes to the same directory.
func FuzzFooter(f *testing.F) {
	tab := buildTestTable(f, colstore.BlockSize+300)
	path := filepath.Join(f.TempDir(), "seed.seg")
	if err := Save(path, 1, []*colstore.Table{tab}); err != nil {
		f.Fatal(err)
	}
	st, err := Open(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	rows := colstore.BlockSize + 300
	if err := st.SetCheckpoint("t", Checkpoint{LogRows: 1 << 40, Deleted: deleted(rows, [2]int{0, 2}, [2]int{64, 65}, [2]int{rows - 3, rows})}); err != nil {
		f.Fatal(err)
	}
	st.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	withCk := footerOf(raw)
	f.Add(withCk)
	f.Add(withCk[:len(withCk)-5]) // a run cut short
	f.Add([]byte{})
	bad := append([]byte(nil), withCk...)
	binary.LittleEndian.PutUint32(bad[len(bad)-28:], 1<<31) // implausible run count (three runs follow it)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		metas, err := decodeFooter(data)
		if err != nil {
			return
		}
		again, err := decodeFooter(encodeFooter(metas))
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
