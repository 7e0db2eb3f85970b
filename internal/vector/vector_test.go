package vector

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmap"
)

func TestSliceIter(t *testing.T) {
	it := NewSliceIter([]int32{5, 6, 7})
	var got []int32
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("SliceIter got %v", got)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator yielded past end")
	}
}

func TestRangePositions(t *testing.T) {
	p := NewRangePositions(3, 8)
	if p.Len() != 5 {
		t.Fatalf("range len = %d", p.Len())
	}
	var got []int32
	p.ForEach(func(i int32) { got = append(got, i) })
	want := []int32{3, 4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach got %v", got)
		}
	}
	if NewRangePositions(5, 5).Len() != 0 {
		t.Fatal("empty range should have len 0")
	}
	if NewRangePositions(7, 3).Len() != 0 {
		t.Fatal("inverted range should have len 0")
	}
}

func TestExplicitPositions(t *testing.T) {
	p := NewExplicitPositions([]int32{1, 4, 9})
	if p.Len() != 3 {
		t.Fatal("explicit len")
	}
	s := p.ToSlice(nil)
	if len(s) != 3 || s[1] != 4 {
		t.Fatalf("ToSlice got %v", s)
	}
	b := p.ToBitmap(10)
	if b.Count() != 3 || !b.Get(9) || b.Get(2) {
		t.Fatal("ToBitmap wrong")
	}
}

func TestBitmapPositions(t *testing.T) {
	bm := bitmap.New(16)
	bm.Set(2)
	bm.Set(15)
	p := NewBitmapPositions(bm)
	if p.Len() != 2 {
		t.Fatal("bitmap positions len")
	}
	s := p.ToSlice(nil)
	if len(s) != 2 || s[0] != 2 || s[1] != 15 {
		t.Fatalf("ToSlice got %v", s)
	}
	// Same length: identity, not copy.
	if p.ToBitmap(16) != bm {
		t.Fatal("ToBitmap should return underlying bitmap when length matches")
	}
	// Different length: converted copy.
	b2 := p.ToBitmap(32)
	if b2 == bm || b2.Count() != 2 || !b2.Get(15) {
		t.Fatal("ToBitmap resize wrong")
	}
}

func TestRangeToBitmapAndSlice(t *testing.T) {
	p := NewRangePositions(60, 70)
	b := p.ToBitmap(100)
	if b.Count() != 10 || !b.Get(60) || !b.Get(69) || b.Get(70) {
		t.Fatal("range ToBitmap wrong")
	}
	s := p.ToSlice(nil)
	if len(s) != 10 || s[0] != 60 || s[9] != 69 {
		t.Fatalf("range ToSlice got %v", s)
	}
}

func TestAndRangeRange(t *testing.T) {
	out := And(NewRangePositions(0, 50), NewRangePositions(30, 80), 100)
	if out.Kind != PosRange || out.Start != 30 || out.End != 50 {
		t.Fatalf("range∧range got kind=%v [%d,%d)", out.Kind, out.Start, out.End)
	}
	// Disjoint ranges.
	out = And(NewRangePositions(0, 10), NewRangePositions(20, 30), 100)
	if out.Len() != 0 {
		t.Fatalf("disjoint ranges len = %d", out.Len())
	}
}

func TestAndExplicitExplicit(t *testing.T) {
	a := NewExplicitPositions([]int32{1, 3, 5, 7})
	b := NewExplicitPositions([]int32{3, 4, 5, 9})
	out := And(a, b, 10)
	s := out.ToSlice(nil)
	if len(s) != 2 || s[0] != 3 || s[1] != 5 {
		t.Fatalf("explicit∧explicit got %v", s)
	}
}

func TestAndMixed(t *testing.T) {
	bm := bitmap.New(10)
	for _, i := range []int{2, 3, 8} {
		bm.Set(i)
	}
	out := And(NewRangePositions(3, 9), NewBitmapPositions(bm), 10)
	s := out.ToSlice(nil)
	if len(s) != 2 || s[0] != 3 || s[1] != 8 {
		t.Fatalf("range∧bitmap got %v", s)
	}
}

// TestQuickAndOracle checks And across all representation pairs against a
// naive set intersection.
func TestQuickAndOracle(t *testing.T) {
	mk := func(rng *rand.Rand, n int) (*Positions, map[int32]bool) {
		set := map[int32]bool{}
		switch rng.Intn(3) {
		case 0:
			s := int32(rng.Intn(n))
			e := s + int32(rng.Intn(n-int(s)+1))
			for i := s; i < e; i++ {
				set[i] = true
			}
			return NewRangePositions(s, e), set
		case 1:
			var list []int32
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					list = append(list, int32(i))
					set[int32(i)] = true
				}
			}
			return NewExplicitPositions(list), set
		default:
			b := bitmap.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					b.Set(i)
					set[int32(i)] = true
				}
			}
			return NewBitmapPositions(b), set
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		a, as := mk(rng, n)
		b, bs := mk(rng, n)
		out := And(a, b, n)
		var want []int32
		for k := range as {
			if bs[k] {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := out.ToSlice(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripRepresentations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		b := bitmap.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
			}
		}
		p := NewBitmapPositions(b)
		slice := p.ToSlice(nil)
		p2 := NewExplicitPositions(slice)
		b2 := p2.ToBitmap(n)
		if b2.Count() != b.Count() {
			return false
		}
		equal := true
		b.ForEach(func(i int) {
			if !b2.Get(i) {
				equal = false
			}
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSeq(t *testing.T) {
	got := AppendSeq(nil, 3, 7)
	want := []int32{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("AppendSeq len = %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSeq[%d] = %d want %d", i, got[i], want[i])
		}
	}
	if out := AppendSeq(got, 9, 9); len(out) != len(got) {
		t.Fatal("empty range should append nothing")
	}
}
