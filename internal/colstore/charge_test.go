package colstore

import (
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/vector"
)

// perPositionBytes is the positional charge computed the slow way: a float
// page number per selected index, counting the changes.
func perPositionBytes(blk compress.IntBlock, idx []int32) int64 {
	bytesPerVal := float64(blk.CompressedBytes()) / float64(blk.Len())
	lastPage := int64(-1)
	var pages int64
	for _, i := range idx {
		if page := int64(float64(i) * bytesPerVal / ioPageBytes); page != lastPage {
			pages++
			lastPage = page
		}
	}
	return min(pages*ioPageBytes, blk.CompressedBytes())
}

// TestChargePositionalPages holds both page-hopping chargers — the index
// list's and the selection bitmap's — to the per-position formula, over
// block sizes whose bytes per value are awkward fractions. The selections
// run from every position to a few per block, plus the positions either
// side of each page boundary alone, where a hop that lands one position
// early counts a page twice and one that lands late skips a page.
func TestChargePositionalPages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 3, 7, 13, 18, 24, 31, 32} {
		n := 1<<16 - rng.Intn(5000)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rng.Int63n(1 << width))
		}
		for _, blk := range []compress.IntBlock{compress.NewBitPackBlock(vals), compress.NewPlainBlock(vals)} {
			bytesPerVal := float64(blk.CompressedBytes()) / float64(blk.Len())
			var firsts, lasts []int32 // each page's first and last position
			for i := 1; i < n; i++ {
				if int64(float64(i)*bytesPerVal/ioPageBytes) != int64(float64(i-1)*bytesPerVal/ioPageBytes) {
					firsts, lasts = append(firsts, int32(i)), append(lasts, int32(i-1))
				}
			}
			sels := [][]int32{firsts, lasts}
			for _, gap := range []int{1, 2, 5, 64, 1000, 20000} {
				var idx []int32
				for i := rng.Intn(gap); i < n; i += 1 + rng.Intn(2*gap) {
					idx = append(idx, int32(i))
				}
				sels = append(sels, idx)
			}
			for _, idx := range sels {
				sel := bitmap.New(n)
				for _, i := range idx {
					sel.Set(int(i))
				}
				want := perPositionBytes(blk, idx)
				var got, gotSel iosim.Stats
				chargePositional(blk, idx, &got)
				chargePositionalSel(blk, sel, &gotSel)
				if got.BytesRead != want || gotSel.BytesRead != want {
					t.Fatalf("%v width %d (%d of %d selected): charged %d (index list) and %d (bitmap), per-position formula %d",
						blk.Encoding(), width, len(idx), n, got.BytesRead, gotSel.BytesRead, want)
				}
				var gotList, gotBits iosim.Stats
				ChargePositions(vector.NewExplicitPositions(idx), blk.Len(), blk.CompressedBytes(), &gotList)
				ChargePositions(vector.NewBitmapPositions(sel), blk.Len(), blk.CompressedBytes(), &gotBits)
				if gotList.BytesRead != want || gotBits.BytesRead != want {
					t.Fatalf("%v width %d (%d of %d selected): ChargePositions charged %d (list) and %d (bitmap), per-position formula %d",
						blk.Encoding(), width, len(idx), n, gotList.BytesRead, gotBits.BytesRead, want)
				}
			}
		}
	}
}

// TestChargePositionsRange holds ChargePositions' range form, counted from
// the range's two ends, to the per-position formula: at fractional bytes
// per value, at values longer than a page (every position its own page),
// and for ranges ending either side of a page boundary and empty ones.
func TestChargePositionsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []struct {
		n    int
		size int64
	}{{100000, 1234567}, {60001, 60001 * 3}, {5000, 5000 * 40000}, {7, 7 * ioPageBytes}} {
		bytesPerVal := float64(c.size) / float64(c.n)
		want := func(start, end int32) int64 {
			lastPage := int64(-1)
			var pages int64
			for i := start; i < end; i++ {
				if page := int64(float64(i) * bytesPerVal / ioPageBytes); page != lastPage {
					pages++
					lastPage = page
				}
			}
			return min(pages*ioPageBytes, c.size)
		}
		var bounds []int32 // positions either side of each page boundary
		for i := 1; i < c.n; i++ {
			if int64(float64(i)*bytesPerVal/ioPageBytes) != int64(float64(i-1)*bytesPerVal/ioPageBytes) {
				bounds = append(bounds, int32(i-1), int32(i), int32(i+1))
			}
		}
		for range 300 {
			start := int32(rng.Intn(c.n))
			end := start + int32(rng.Intn(c.n-int(start)+1))
			if len(bounds) > 0 && rng.Intn(2) == 0 {
				end = min(bounds[rng.Intn(len(bounds))], int32(c.n))
			}
			var got iosim.Stats
			ChargePositions(vector.NewRangePositions(start, end), c.n, c.size, &got)
			if w := want(start, end); got.BytesRead != w {
				t.Fatalf("n %d size %d: range [%d, %d) charged %d, per-position formula %d", c.n, c.size, start, end, got.BytesRead, w)
			}
		}
	}
}

// TestSelChargesWholeBlock holds the late-probe rule's page test to the
// charge it stands for: SelChargesWholeBlock is true exactly when
// chargePositionalSel charges the block's CompressedBytes. Selections run
// from one position in 1024 to every position, plus each page's first
// position alone and every page but one, on plain, bit-packed and
// run-length blocks of 64K, 1000 and 1 values. A run-length block of 2731
// distinct values is the corner the page count cannot reach: 32 772 bytes
// whose last value starts on the first page, so every page is touched but
// one page's 32 KiB falls short of the size, and the test must refuse.
func TestSelChargesWholeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var blocks []compress.IntBlock
	for _, n := range []int{BlockSize, 1000, 1} {
		for _, width := range []int{1, 4, 11, 17, 25, 32} {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Int63n(1 << width))
			}
			blocks = append(blocks, compress.NewBitPackBlock(vals), compress.NewPlainBlock(vals))
		}
		for _, runs := range []int{1, 16, 2000, n} {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(i * runs / n)
			}
			blocks = append(blocks, compress.NewRLEBlock(vals))
		}
	}
	straddle := make([]int32, 2731)
	for i := range straddle {
		straddle[i] = int32(i)
	}
	blocks = append(blocks, compress.NewRLEBlock(straddle))

	for _, blk := range blocks {
		n, size := blk.Len(), blk.CompressedBytes()
		col := &Column{blocks: []compress.IntBlock{blk}, n: n}
		bytesPerVal := bytesPerValue(n, size)
		var firsts []int // each page's first position
		for i := range n {
			if i == 0 || pageOf(i, bytesPerVal) != pageOf(i-1, bytesPerVal) {
				firsts = append(firsts, i)
			}
		}
		var sels []*bitmap.Bitmap
		for density := 1024; density >= 1; density /= 2 {
			sel := bitmap.New(n)
			for i := range n {
				if rng.Intn(density) == 0 {
					sel.Set(i)
				}
			}
			sels = append(sels, sel)
		}
		pageFirsts := bitmap.New(n)
		for _, i := range firsts {
			pageFirsts.Set(i)
		}
		sels = append(sels, pageFirsts)
		for skip := range firsts {
			sel := bitmap.New(n)
			for p, i := range firsts {
				if p != skip {
					sel.Set(i)
				}
			}
			sels = append(sels, sel)
		}
		for _, sel := range sels {
			var st iosim.Stats
			chargePositionalSel(blk, sel, &st)
			want := st.BytesRead == size
			if got := col.SelChargesWholeBlock(0, sel); got != want {
				t.Fatalf("%v block of %d values in %d bytes, %d selected: SelChargesWholeBlock %v, but the positional charge is %d",
					blk.Encoding(), n, size, sel.Count(), got, st.BytesRead)
			}
		}
		if blk.Len() == len(straddle) && blk.Encoding() == compress.RLE {
			all := bitmap.New(n)
			all.SetRange(0, n)
			if len(firsts) != 1 || size <= ioPageBytes || col.SelChargesWholeBlock(0, all) {
				t.Fatalf("straddling block: %d pages of %d bytes, every position selected: want one page short of the size and a refusal", len(firsts), size)
			}
		}
	}
}
