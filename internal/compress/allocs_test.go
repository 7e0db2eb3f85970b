//go:build !race

package compress

import (
	"math/rand"
	"testing"

	"repro/internal/bitmap"
)

// The race detector's instrumentation changes inlining and escape analysis,
// so allocation counts are only meaningful in a normal build (the same split
// as internal/server's allocs_test.go).

// TestKernelsDoNotAllocate: a whole-block kernel works on the stack — a
// heap allocation per call would be paid once per block per probe.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	match := func(v int32) bool { return v&1 == 0 }
	for _, card := range []int{0, 5} {
		vals, vmin, vmax := widthVals(rng, benchBlockLen, 18, card)
		mid := int32((int64(vmin) + int64(vmax)) / 2)
		set := randomBitmap(rng, 1<<16)
		bm := bitmap.New(len(vals))
		dst := make([]int32, 0, len(vals))
		acc := NewAggAcc()
		idx := make([]int32, 0, len(vals)/16)
		for i := 0; i < len(vals); i += 16 {
			idx = append(idx, int32(i))
		}
		for name, blk := range encodersFor(vals) {
			for kernel, fn := range map[string]func(){
				"Filter":            func() { blk.Filter(Between(vmin, mid), 0, bm) },
				"Filter(In)":        func() { blk.Filter(Pred{Op: OpIn, Set: idx[:3]}, 0, bm) },
				"FilterSet":         func() { blk.FilterSet(set, mid, 0, bm) },
				"FilterFunc":        func() { blk.FilterFunc(match, 0, bm) },
				"AppendTo":          func() { benchSink += len(blk.AppendTo(dst[:0])) },
				"Gather":            func() { benchSink += len(blk.Gather(idx, dst[:0])) },
				"GatherSelect(nil)": func() { benchSink += len(blk.GatherSelect(nil, 0, dst[:0])) },
				"AggSelect(nil)":    func() { blk.AggSelect(nil, 0, &acc) },
			} {
				if allocs := testing.AllocsPerRun(3, fn); allocs != 0 {
					t.Errorf("%s %s (card %d): %v allocs per call, want 0", name, kernel, card, allocs)
				}
			}
		}
	}
}
