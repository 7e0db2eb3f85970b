package compress

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bitmap"
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

// TestSetKernels holds every width's generated set routine, over the table
// BitPackBlock.memberTable builds, to unpack64 and a membership oracle on
// random groups holding the lowest and the highest (all-ones) code. The
// set windows are anchored below, at, inside and above the block's
// minimum; one holds only the largest code, one is empty. A block too
// wide for the table rule is checked through FilterSet, which then keeps
// the per-value set test.
func TestSetKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const vmin = -1000
	for width := uint(1); width <= kernelgen.MaxSetWidth; width++ {
		top := int32(1<<width - 1)
		for range 16 {
			vals := make([]int32, groupLen)
			for i := range vals {
				vals[i] = vmin + int32(rng.Int63n(int64(top)+1))
			}
			lowest := rng.Intn(groupLen)
			vals[lowest], vals[(lowest+1+rng.Intn(groupLen-1))%groupLen] = vmin, vmin+top
			blk := NewBitPackBlock(vals)
			if blk.width != width || blk.min != vmin {
				t.Fatalf("width %d: packed at width %d from %d", width, blk.width, blk.min)
			}
			var codes group
			unpack64((*[groupBytes]byte)(append(blk.words, make([]byte, groupBytes)...)), width, 0, codes[:])
			for i, c := range codes {
				if vmin+c != vals[i] {
					t.Fatalf("width %d: unpack64 field %d = %d, packed %d", width, i, c, vals[i]-vmin)
				}
			}
			half := randomBitmap(rng, int(top/2)+9)
			largest := bitmap.New(1)
			largest.Set(0)
			for _, w := range []struct {
				name   string
				set    *bitmap.Bitmap
				setMin int32
			}{
				{"below", half, vmin - 8},
				{"at", randomBitmap(rng, int(top)+1), vmin},
				{"inside", half, vmin + top/2},
				{"above", randomBitmap(rng, 64), vmin + top + 1},
				{"largest", largest, vmin + top},
				{"empty", bitmap.New(0), vmin},
			} {
				var want uint64
				for i, c := range codes {
					if setContains(w.set, w.setMin, vmin+c) {
						want |= 1 << i
					}
				}
				var got uint64
				if tbl := blk.memberTable(new([]byte), w.set, w.setMin); tbl != nil {
					got = setGroup(blk.words, width, tbl)
				}
				if got != want {
					t.Fatalf("width %d: set %s = %#x, oracle %#x", width, w.name, got, want)
				}
			}
		}
	}

	// 64 values at width 9: a 512-byte table would be 8 bytes per value.
	vals := make([]int32, groupLen)
	for i := range vals {
		vals[i] = int32(rng.Intn(512))
	}
	vals[0], vals[1] = 0, 511
	set := randomBitmap(rng, 600)
	sel := setSelection("too wide for the table", set, -40)
	blk := NewBitPackBlock(vals)
	checkSelection(t, "width 9", blk, sel, sel.oracle(vals), bitmap.New(groupLen), 0)
}
