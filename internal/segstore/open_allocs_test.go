//go:build !race

package segstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// TestOpenAllocsFlatInDictionarySize pins that opening a store does not
// allocate per dictionary value: a footer dictionary decodes into one string
// and one offset array. It saves a one-table store whose one dictionary has
// 10³ and then 10⁵ values and requires Open+Close to allocate the same
// number of times within a small constant. (Race instrumentation allocates,
// hence !race.)
func TestOpenAllocsFlatInDictionarySize(t *testing.T) {
	allocs := func(n int) float64 {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("value#%06d", i)
		}
		dict := compress.BuildDict(vals)
		tab := colstore.NewTable("t")
		tab.AddColumn(colstore.NewColumn("v", dict.Encode(vals, nil), dict, colstore.PrimarySort, true))
		path := filepath.Join(t.TempDir(), "t.seg")
		if err := Save(path, 1, []*colstore.Table{tab}); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MustColumn("v").Dict; d.Size() != n || d.Value(int32(n-1)) != vals[n-1] {
			t.Fatalf("reopened dictionary has %d values, want %d", d.Size(), n)
		}
		st.Close()
		return testing.AllocsPerRun(5, func() {
			st, err := Open(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		})
	}
	small, large := allocs(1e3), allocs(1e5)
	t.Logf("Open+Close allocations: %.0f with 10³ dictionary values, %.0f with 10⁵", small, large)
	if large-small > 8 {
		t.Fatalf("Open+Close allocates %.0f times with a 10⁵-value dictionary, %.0f with 10³: allocations grow with the dictionary", large, small)
	}
}
