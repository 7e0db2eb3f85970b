package compress

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmap"
)

func lowCardVals(rng *rand.Rand, n, card int) []int32 {
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = rng.Int31n(int32(card)) * 3 // non-dense value space
	}
	return vals
}

func TestBitVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		vals := lowCardVals(rng, rng.Intn(500)+1, rng.Intn(maxBitVecValues)+1)
		b := NewBitVecBlock(vals)
		got := b.AppendTo(nil)
		if len(got) != len(vals) {
			t.Fatalf("len %d want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("decode[%d]=%d want %d", i, got[i], vals[i])
			}
			if b.Get(i) != vals[i] {
				t.Fatalf("Get(%d)=%d want %d", i, b.Get(i), vals[i])
			}
		}
		mn, mx := b.MinMax()
		wmn, wmx := minMax(vals)
		if mn != wmn || mx != wmx {
			t.Fatal("minmax wrong")
		}
		if b.Cardinality() > maxBitVecValues {
			t.Fatal("cardinality overflow")
		}
	}
}

func TestBitVecFilterAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vals := lowCardVals(rng, 300, 6)
	b := NewBitVecBlock(vals)
	for _, p := range []Pred{Eq(vals[0]), Between(0, 9), Ge(6), In(0, 3, 12)} {
		bm := bitmap.New(64 + len(vals))
		b.Filter(p, 64, bm) // aligned base
		for i, v := range vals {
			if bm.Get(64+i) != p.Match(v) {
				t.Fatalf("pred %v pos %d: got %v for value %d", p, i, bm.Get(64+i), v)
			}
		}
	}
}

func TestBitVecFilterUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := lowCardVals(rng, 100, 4)
	b := NewBitVecBlock(vals)
	bm := bitmap.New(7 + len(vals))
	p := Ge(3)
	b.Filter(p, 7, bm) // exercises the fallback path
	for i, v := range vals {
		if bm.Get(7+i) != p.Match(v) {
			t.Fatalf("unaligned filter wrong at %d", i)
		}
	}
}

func TestBitVecGather(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vals := lowCardVals(rng, 400, 8)
	b := NewBitVecBlock(vals)
	idx := []int32{0, 5, 63, 64, 399}
	got := b.Gather(idx, nil)
	for k, i := range idx {
		if got[k] != vals[i] {
			t.Fatalf("gather[%d] wrong", k)
		}
	}
}

func TestBitVecPanicsOnHighCardinality(t *testing.T) {
	vals := make([]int32, 100)
	for i := range vals {
		vals[i] = int32(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >32 distinct values")
		}
	}()
	NewBitVecBlock(vals)
}

func TestDistinctSmall(t *testing.T) {
	if !DistinctSmall([]int32{1, 1, 2, 2, 3}, 3) {
		t.Fatal("3 distinct <= 3 should pass")
	}
	if DistinctSmall([]int32{1, 2, 3, 4}, 3) {
		t.Fatal("4 distinct > 3 should fail")
	}
	if !DistinctSmall(nil, 0) {
		t.Fatal("empty should pass")
	}
}

func TestBitVecSizeAccounting(t *testing.T) {
	vals := lowCardVals(rand.New(rand.NewSource(15)), 640, 4)
	b := NewBitVecBlock(vals)
	// k bitmaps of ceil(640/64)*8 bytes plus directory.
	want := int64(b.Cardinality())*80 + int64(b.Cardinality())*4
	if b.CompressedBytes() != want {
		t.Fatalf("CompressedBytes=%d want %d", b.CompressedBytes(), want)
	}
}

// TestQuickBitVecFilterOracle: direct operation equals decoded filtering.
func TestQuickBitVecFilterOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := lowCardVals(rng, rng.Intn(700)+1, rng.Intn(16)+1)
		b := NewBitVecBlock(vals)
		p := genPred(rng, vals)
		bm := bitmap.New(len(vals))
		b.Filter(p, 0, bm)
		for i, v := range vals {
			if bm.Get(i) != p.Match(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
