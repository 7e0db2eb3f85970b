package compress

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/compress/kernelgen"
)

//go:generate go run gen_unpack.go

// TestGeneratedKernelsFresh: unpack_gen.go is exactly what the generator
// emits, so an edit to either that skips `go generate` fails here.
func TestGeneratedKernelsFresh(t *testing.T) {
	want, err := kernelgen.Emit()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("unpack_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("unpack_gen.go differs from the generator's output: run go generate ./internal/compress")
	}
}

// TestIntervalKernels holds every width's generated routine to unpack64 and
// an interval oracle on random groups. Each group holds the lowest and the
// highest (all-ones) code, the rest drawn with both ends overweighted; the
// intervals are the whole code space, each end alone, a one-code interval
// inside, intervals anchored at either end and random ones.
func TestIntervalKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for width := uint(1); width <= kernelgen.MaxWidth; width++ {
		top := uint32(1<<width - 1)
		for range 64 {
			vals := make([]int32, groupLen)
			for i := range vals {
				c := uint32(rng.Int63n(int64(top) + 1))
				switch rng.Intn(8) {
				case 0:
					c = 0
				case 1, 2:
					c = top
				}
				vals[i] = int32(c + math.MaxInt32 + 1) // int32 min plus the code
			}
			vals[rng.Intn(groupLen)], vals[rng.Intn(groupLen)] = math.MinInt32, int32(top+math.MaxInt32+1)
			blk := NewBitPackBlock(vals)
			if blk.width != width || len(blk.words) != int(8*width) {
				t.Fatalf("width %d: packed at width %d into %d bytes", width, blk.width, len(blk.words))
			}
			var codes group
			unpack64((*[groupBytes]byte)(append(blk.words, make([]byte, groupBytes)...)), width, 0, codes[:])
			for i, c := range codes {
				if want := uint32(vals[i]) - (math.MaxInt32 + 1); uint32(c) != want {
					t.Fatalf("width %d: unpack64 field %d = %d, packed %d", width, i, uint32(c), want)
				}
			}
			mid := uint32(codes[rng.Intn(groupLen)])
			a, b := uint32(rng.Int63n(int64(top)+1)), uint32(rng.Int63n(int64(top)+1))
			for _, iv := range [][2]uint32{{0, top}, {0, 0}, {top, top}, {mid, mid}, {0, mid}, {mid, top}, {min(a, b), max(a, b)}} {
				lo, hi := iv[0], iv[1]
				var want uint64
				for i, c := range codes {
					if lo <= uint32(c) && uint32(c) <= hi {
						want |= 1 << i
					}
				}
				if got := intervalGroup(blk.words, width, lo, uint64(hi-lo)); got != want {
					t.Fatalf("width %d: interval [%d, %d] = %#x, oracle %#x", width, lo, hi, got, want)
				}
			}
		}
	}
}
