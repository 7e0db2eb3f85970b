package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
)

// benchBlockLen is the storage layer's block size.
const benchBlockLen = 1 << 16

// benchShapes are the value shapes of BenchmarkFilterKernels, one per
// encoding: n values spanning [vmin, vmin+2^width) with a negative vmin. The
// value-at-a-time encodings get uniform noise (the worst case for a
// data-dependent branch); RLE gets 16 sorted runs, the shape the chooser
// picks it for. bitpack-wire is the form a pool frame serves: decoded from
// its wire payload, so its words start at an unaligned byte offset.
var benchShapes = []struct {
	name  string
	vals  func(rng *rand.Rand, n int, vmin int32, span int64) []int32
	build func([]int32) IntBlock
}{
	{"plain", uniformVals, func(v []int32) IntBlock { return NewPlainBlock(v) }},
	{"bitpack", uniformVals, func(v []int32) IntBlock { return NewBitPackBlock(v) }},
	{"bitpack-wire", uniformVals, func(v []int32) IntBlock { return wireView(NewBitPackBlock(v)) }},
	{"rle", func(_ *rand.Rand, n int, vmin int32, span int64) []int32 {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(int64(vmin) + int64(i*16/n)*span/15)
		}
		return vals
	}, func(v []int32) IntBlock { return NewRLEBlock(v) }},
}

func uniformVals(rng *rand.Rand, n int, vmin int32, span int64) []int32 {
	vals := make([]int32, n)
	vals[0], vals[1] = vmin, int32(int64(vmin)+span) // pin the width
	for i := 2; i < n; i++ {
		vals[i] = int32(int64(vmin) + rng.Int63n(span+1))
	}
	return vals
}

var benchSink int

// BenchmarkFilterKernels is the in-package kernel table: every encoding at
// seven value widths (11, 15, 18 and 21 are the SF=1 store's suppkey,
// custkey, partkey and orderkey; 25 is the widest the AVX2 interval loop
// serves), Filter at three selectivities (flat across them is the evidence
// that a kernel has no data-dependent branch; on a bit-packed block a
// …/go row beside each runs it with the AVX2 loop off, the generated Go
// routines alone), FilterSet against a
// one-in-three dense set and a sparse one (flat across them too), whole-block
// decode, and a one-in-sixteen gather — all in ns per value — and, at the
// probed widths, the fused scan's gather arm in ns per survivor at three
// densities (GatherArm; the late-probe rule's c_gather).
func BenchmarkFilterKernels(b *testing.B) {
	perValue := func(b *testing.B, nVals int, fn func()) {
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nVals), "ns/value")
	}
	for _, shape := range benchShapes {
		for _, width := range []uint{4, 11, 15, 18, 21, 25, 32} {
			span := int64(1)<<width - 1
			vmin := int32(-span/2 - 1)
			vals := shape.vals(rand.New(rand.NewSource(int64(width))), benchBlockLen, vmin, span)
			blk := shape.build(vals)
			n := blk.Len()
			bm := bitmap.New(n)
			name := fmt.Sprintf("%s/w%d", shape.name, width)

			_, packed := blk.(*BitPackBlock)
			for _, pct := range []int64{1, 50, 99} {
				p := Between(vmin, int32(int64(vmin)+span*pct/100))
				b.Run(fmt.Sprintf("Filter/%s/sel%d", name, pct), func(b *testing.B) {
					perValue(b, n, func() { bm.Reset(); blk.Filter(p, 0, bm) })
				})
				if packed {
					b.Run(fmt.Sprintf("Filter/%s/sel%d/go", name, pct), func(b *testing.B) {
						defer func(on bool) { useAVX2 = on }(useAVX2)
						useAVX2 = false
						perValue(b, n, func() { bm.Reset(); blk.Filter(p, 0, bm) })
					})
				}
			}

			// Every third value of the first 2^20 of the span is a member.
			set := bitmap.New(int(min(span+1, 1<<20)))
			for i := 0; i < set.Len(); i += 3 {
				set.Set(i)
			}
			b.Run("FilterSet/"+name, func(b *testing.B) {
				perValue(b, n, func() { bm.Reset(); blk.FilterSet(set, vmin, 0, bm) })
			})
			// Q3.3's shape: 238 members scattered over the first 30 000 keys.
			sparse := bitmap.New(int(min(span+1, 30_000)))
			setRng := rand.New(rand.NewSource(33))
			for range min(238, sparse.Len()/3) {
				sparse.Set(setRng.Intn(sparse.Len()))
			}
			b.Run("FilterSet/sparse/"+name, func(b *testing.B) {
				perValue(b, n, func() { bm.Reset(); blk.FilterSet(sparse, vmin, 0, bm) })
			})

			dst := make([]int32, 0, n)
			b.Run("AppendTo/"+name, func(b *testing.B) {
				perValue(b, n, func() { benchSink += len(blk.AppendTo(dst[:0])) })
			})

			// Survivors of an earlier probe: sorted, irregularly spaced.
			var idx []int32
			idxRng := rand.New(rand.NewSource(16))
			for i := 0; i < n; i++ {
				if idxRng.Intn(16) == 0 {
					idx = append(idx, int32(i))
				}
			}
			b.Run("Gather/"+name, func(b *testing.B) {
				perValue(b, len(idx), func() { benchSink += len(blk.Gather(idx, dst[:0])) })
			})

			// The fused scan's gather arm for a late interval probe, in ns
			// per survivor: the selection bitmap's positions, the gather
			// at them and the in-place compaction, as fusedBlock runs it.
			if shape.name != "bitpack-wire" || (width != 11 && width != 15 && width != 18) {
				continue
			}
			ulo, uspan := uint32(vmin), uint32(span/2)
			for _, density := range []int{64, 16, 4} {
				sel := bitmap.New(n)
				for i := 0; i < n; i++ {
					if idxRng.Intn(density) == 0 {
						sel.Set(i)
					}
				}
				var pos []int32
				b.Run(fmt.Sprintf("GatherArm/%s/d%d", name, density), func(b *testing.B) {
					perValue(b, sel.Count(), func() {
						pos = sel.AppendPositions(pos[:0])
						vals, k := blk.Gather(pos, dst[:0]), 0
						for j, v := range vals {
							pos[k] = pos[j]
							k += int(b2u(uint32(v)-ulo <= uspan))
						}
						benchSink += k
					})
				})
			}
		}
	}
}
