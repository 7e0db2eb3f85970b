package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Count() != 0 || b.Any() {
		t.Fatalf("empty bitmap misbehaves: len=%d count=%d any=%v", b.Len(), b.Count(), b.Any())
	}
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 1000} {
		b := NewFull(n)
		if b.Count() != n {
			t.Errorf("NewFull(%d).Count() = %d", n, b.Count())
		}
	}
}

func TestSetRange(t *testing.T) {
	cases := []struct{ n, start, end int }{
		{100, 0, 100}, {100, 10, 20}, {100, 0, 0}, {100, 50, 50},
		{200, 63, 65}, {200, 64, 128}, {200, 1, 199}, {64, 0, 64},
		{130, 63, 130}, {130, 128, 130},
	}
	for _, c := range cases {
		b := New(c.n)
		b.SetRange(c.start, c.end)
		for i := 0; i < c.n; i++ {
			want := i >= c.start && i < c.end
			if b.Get(i) != want {
				t.Fatalf("SetRange(%d,%d) on n=%d: bit %d = %v, want %v", c.start, c.end, c.n, i, b.Get(i), want)
			}
		}
		if got := b.Count(); got != c.end-c.start {
			t.Fatalf("SetRange(%d,%d): Count=%d want %d", c.start, c.end, got, c.end-c.start)
		}
	}
}

func TestAndOrNot(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(1))
	a, b := New(n), New(n)
	as, bs := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
			as[i] = true
		}
		if rng.Intn(3) == 0 {
			b.Set(i)
			bs[i] = true
		}
	}
	and := a.Clone()
	and.And(b)
	or := a.Clone()
	or.Or(b)
	andnot := a.Clone()
	andnot.AndNot(b)
	not := a.Clone()
	not.Not()
	for i := 0; i < n; i++ {
		if and.Get(i) != (as[i] && bs[i]) {
			t.Fatalf("And bit %d wrong", i)
		}
		if or.Get(i) != (as[i] || bs[i]) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if andnot.Get(i) != (as[i] && !bs[i]) {
			t.Fatalf("AndNot bit %d wrong", i)
		}
		if not.Get(i) != !as[i] {
			t.Fatalf("Not bit %d wrong", i)
		}
	}
	if not.Count() != n-a.Count() {
		t.Fatalf("Not.Count()=%d want %d (tail bits leaked)", not.Count(), n-a.Count())
	}
}

func TestForEachAndAppendPositions(t *testing.T) {
	b := New(200)
	want := []int32{0, 5, 63, 64, 100, 199}
	for _, p := range want {
		b.Set(int(p))
	}
	var got []int32
	b.ForEach(func(p int) { got = append(got, int32(p)) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d positions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	got2 := b.AppendPositions(nil)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("AppendPositions[%d] = %d, want %d", i, got2[i], want[i])
		}
	}
}

func TestNextSet(t *testing.T) {
	b := New(300)
	b.Set(10)
	b.Set(64)
	b.Set(299)
	cases := []struct{ from, want int }{
		{0, 10}, {10, 10}, {11, 64}, {64, 64}, {65, 299}, {299, 299}, {300, -1},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(100).NextSet(0) != -1 {
		t.Error("NextSet on empty bitmap should return -1")
	}
}

func TestReset(t *testing.T) {
	b := NewFull(100)
	b.Reset()
	if b.Count() != 0 || b.Len() != 100 {
		t.Fatalf("Reset: count=%d len=%d", b.Count(), b.Len())
	}
}

// TestQuickAgainstMapOracle drives the bitmap with random operations and
// checks every observable against a map-based set oracle.
func TestQuickAgainstMapOracle(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%257 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		oracle := map[int]bool{}
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				b.Set(i)
				oracle[i] = true
			case 1:
				b.Clear(i)
				delete(oracle, i)
			case 2:
				if b.Get(i) != oracle[i] {
					return false
				}
			}
		}
		if b.Count() != len(oracle) {
			return false
		}
		ok := true
		b.ForEach(func(p int) {
			if !oracle[p] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetRangeOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		start := rng.Intn(n)
		end := start + rng.Intn(n-start+1)
		b := New(n)
		b.SetRange(start, end)
		for i := 0; i < n; i++ {
			if b.Get(i) != (i >= start && i < end) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd(b *testing.B) {
	const n = 1 << 20
	x, y := NewFull(n), NewFull(n)
	b.SetBytes(int64(n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkCount(b *testing.B) {
	const n = 1 << 20
	x := NewFull(n)
	b.SetBytes(int64(n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

// TestOrWord: the 64 bits land at [pos, pos+64) for aligned and unaligned
// pos, pre-set bits survive, nothing else moves, and a word whose spill is
// empty never reaches for a word past the end.
func TestOrWord(t *testing.T) {
	const w = 0x8000_0000_0000_0005 // bits 0, 2 and 63
	for _, pos := range []int{0, 1, 63, 64, 100} {
		b := New(192)
		b.Set(pos + 1) // inside the window, not in w: must survive
		b.Set(191)     // outside it
		b.OrWord(pos, w)
		for _, i := range []int{pos, pos + 1, pos + 2, pos + 63, 191} {
			if !b.Get(i) {
				t.Fatalf("pos %d: bit %d not set", pos, i)
			}
		}
		if b.Count() != 5 {
			t.Fatalf("pos %d: %d bits set, want 5", pos, b.Count())
		}
	}
	last := New(70)
	last.OrWord(64, 0x21) // bits 64 and 69: the last word, nothing spills
	last.OrWord(60, 0x3f1)
	if !last.Get(64) || !last.Get(69) || !last.Get(60) || last.Count() != 7 {
		t.Fatalf("tail word: count %d", last.Count())
	}
}

func TestResizeWithinCapacity(t *testing.T) {
	b := New(200)
	b.SetRange(0, 200)
	b.Resize(70)
	b.Reset()
	b.SetRange(3, 70)
	if b.Len() != 70 || b.Count() != 67 || len(b.Words()) != 2 {
		t.Fatalf("shrunk: len %d count %d words %d, want 70/67/2", b.Len(), b.Count(), len(b.Words()))
	}
	b.Resize(200) // regrown words hold stale bits until the next Reset
	b.Reset()
	if b.Len() != 200 || b.Any() || len(b.Words()) != 4 {
		t.Fatalf("regrown: len %d any %v words %d, want 200/false/4", b.Len(), b.Any(), len(b.Words()))
	}
}
