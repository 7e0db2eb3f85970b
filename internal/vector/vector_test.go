package vector

import (
	"math/rand"
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
