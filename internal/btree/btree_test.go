package btree

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func collect[K int32 | string](t *Tree[K]) []Entry[K] {
	var out []Entry[K]
	t.Scan(func(e Entry[K]) bool {
		out = append(out, e)
		return true
	})
	return out
}

// build sorts entries by (Key, RID) and bulk-loads them, as the row store
// does for every index.
func build[K int32 | string](entries []Entry[K], keyBytes int) *Tree[K] {
	slices.SortFunc(entries, func(a, b Entry[K]) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.RID, b.RID))
	})
	return Build(entries, keyBytes)
}

func TestEmptyTree(t *testing.T) {
	tr := Build[int32](nil, 4)
	if got := collect(tr); len(got) != 0 {
		t.Fatal("empty tree scan produced entries")
	}
	if tr.SizeBytes() != 0 {
		t.Fatalf("empty tree SizeBytes=%d", tr.SizeBytes())
	}
	if tr.Range(0, 100, func(Entry[int32]) bool { t.Fatal("empty range visited an entry"); return true }) != 1 {
		t.Fatal("empty range should visit the one (empty) leaf")
	}
}

// TestInsertAndScanSorted: rows inserted in random key order, with
// duplicate keys, are indexed so that a scan over many leaves returns every
// entry in (Key, RID) order, aux payload intact.
func TestInsertAndScanSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 5000
	entries := make([]Entry[int32], n)
	for i := range entries {
		entries[i] = Entry[int32]{Key: rng.Int31n(500), RID: int32(i), Aux: int32(i * 2)}
	}
	got := collect(build(entries, 4))
	if len(got) != n {
		t.Fatalf("scan len=%d want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatalf("scan out of order at %d: %d < %d", i, got[i].Key, got[i-1].Key)
		}
		if got[i].Key == got[i-1].Key && got[i].RID < got[i-1].RID {
			t.Fatalf("duplicate keys out of RID order at %d", i)
		}
	}
	for _, e := range got {
		if e.Aux != e.RID*2 {
			t.Fatalf("aux corrupted: rid=%d aux=%d", e.RID, e.Aux)
		}
	}
}

// TestBuildMatchesInsert: a bulk-loaded tree scans back exactly what a
// reference gets by inserting each entry, in random order, into a sorted
// slice at its (Key, RID) position.
func TestBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	entries := make([]Entry[int32], n)
	for i := range entries {
		entries[i] = Entry[int32]{Key: rng.Int31n(1000), RID: int32(i), Aux: int32(i)}
	}
	rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	var ref []Entry[int32]
	for _, e := range entries {
		at := sort.Search(len(ref), func(i int) bool { return less(e.Key, e.RID, ref[i].Key, ref[i].RID) })
		ref = slices.Insert(ref, at, e)
	}
	got := collect(build(entries, 4))
	if len(got) != n {
		t.Fatalf("scan len=%d want %d", len(got), n)
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, got[i], ref[i])
		}
	}
}

func TestRange(t *testing.T) {
	entries := make([]Entry[int32], 1000)
	for i := range entries {
		entries[i] = Entry[int32]{Key: int32(i * 2), RID: int32(i)} // even keys 0..1998
	}
	tr := Build(entries, 4)
	var got []int32
	tr.Range(100, 110, func(e Entry[int32]) bool {
		got = append(got, e.Key)
		return true
	})
	want := []int32{100, 102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("range got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range got %v want %v", got, want)
		}
	}
	// Range outside key space.
	count := 0
	tr.Range(5000, 6000, func(Entry[int32]) bool { count++; return true })
	if count != 0 {
		t.Fatalf("out-of-range matched %d", count)
	}
	// Early stop.
	count = 0
	tr.Range(0, 2000, func(Entry[int32]) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestStringKeys(t *testing.T) {
	var entries []Entry[string]
	for i, w := range []string{"EUROPE", "ASIA", "AMERICA", "AFRICA", "MIDDLE EAST"} {
		entries = append(entries, Entry[string]{Key: w, RID: int32(i)})
	}
	tr := build(entries, 10)
	var got []string
	tr.Range("AMERICA", "EUROPE", func(e Entry[string]) bool {
		got = append(got, e.Key)
		return true
	})
	want := []string{"AMERICA", "ASIA", "EUROPE"}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	entries := make([]Entry[int32], 100)
	for i := range entries {
		entries[i] = Entry[int32]{Key: int32(i), RID: int32(i)}
	}
	tr := Build(entries, 4)
	if tr.EntryBytes() != 12 {
		t.Fatalf("EntryBytes=%d want 12", tr.EntryBytes())
	}
	if tr.SizeBytes() != 1200 {
		t.Fatalf("SizeBytes=%d want 1200", tr.SizeBytes())
	}
}

// TestQuickAgainstSortedSliceOracle: a tree built from random keys must
// answer every range query as a sorted-slice reference does.
func TestQuickAgainstSortedSliceOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000) + 1
		keys := make([]int32, n)
		entries := make([]Entry[int32], n)
		for i := range keys {
			keys[i] = rng.Int31n(200)
			entries[i] = Entry[int32]{Key: keys[i], RID: int32(i)}
		}
		tr := build(entries, 4)
		sorted := append([]int32(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for q := 0; q < 20; q++ {
			lo := rng.Int31n(220) - 10
			hi := lo + rng.Int31n(50)
			count := 0
			tr.Range(lo, hi, func(e Entry[int32]) bool {
				if e.Key < lo || e.Key > hi {
					return false
				}
				count++
				return true
			})
			want := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi }) -
				sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
			if count != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	const n = 1 << 18
	entries := make([]Entry[int32], n)
	for i := range entries {
		entries[i] = Entry[int32]{Key: int32(i), RID: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(entries, 4)
	}
}

func BenchmarkRangeScan(b *testing.B) {
	const n = 1 << 18
	entries := make([]Entry[int32], n)
	for i := range entries {
		entries[i] = Entry[int32]{Key: int32(i), RID: int32(i)}
	}
	tr := Build(entries, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := int64(0)
		tr.Range(0, n-1, func(e Entry[int32]) bool {
			sum += int64(e.RID)
			return true
		})
	}
}
