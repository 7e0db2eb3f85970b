package compress

import (
	"sort"

	"repro/internal/bitmap"
)

// Run is one run of identical values: vals[Start : Start+Len] == Val.
type Run struct {
	Val   int32
	Start int32
	Len   int32
}

// RLEBlock stores a block as runs of repeated values. Predicate application
// touches each run once regardless of run length, which is the "perform the
// same operation on multiple column values at once" benefit described in
// Section 5.1.
type RLEBlock struct {
	runs     []Run
	n        int
	min, max int32
}

// NewRLEBlock run-length encodes vals.
func NewRLEBlock(vals []int32) *RLEBlock {
	b := &RLEBlock{n: len(vals)}
	b.min, b.max = minMax(vals)
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		b.runs = append(b.runs, Run{Val: vals[i], Start: int32(i), Len: int32(j - i)})
		i = j
	}
	return b
}

// CountRuns returns the number of runs vals would encode to, used by the
// encoding chooser.
func CountRuns(vals []int32) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

// Len implements IntBlock.
func (b *RLEBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *RLEBlock) Encoding() Encoding { return RLE }

// MinMax implements IntBlock.
func (b *RLEBlock) MinMax() (int32, int32) { return b.min, b.max }

// NumRuns returns the run count (compression diagnostics).
func (b *RLEBlock) NumRuns() int { return len(b.runs) }

// Runs exposes the run list for executors that aggregate directly over
// compressed data (e.g. summing val*len per run).
func (b *RLEBlock) Runs() []Run { return b.runs }

// AppendTo implements IntBlock.
func (b *RLEBlock) AppendTo(dst []int32) []int32 {
	for _, r := range b.runs {
		for k := int32(0); k < r.Len; k++ {
			dst = append(dst, r.Val)
		}
	}
	return dst
}

// Get implements IntBlock via binary search over run starts.
func (b *RLEBlock) Get(i int) int32 {
	ri := sort.Search(len(b.runs), func(k int) bool { return b.runs[k].Start > int32(i) }) - 1
	return b.runs[ri].Val
}

// Filter implements IntBlock: one predicate evaluation per run, with whole
// ranges set at once for matching runs.
func (b *RLEBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	for _, r := range b.runs {
		if p.Match(r.Val) {
			bm.SetRange(base+int(r.Start), base+int(r.Start+r.Len))
		}
	}
}

// FilterSet implements IntBlock: one membership bit test per run, with whole
// ranges set at once for matching runs.
func (b *RLEBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	for _, r := range b.runs {
		if setContains(set, setMin, r.Val) {
			bm.SetRange(base+int(r.Start), base+int(r.Start+r.Len))
		}
	}
}

// Gather implements IntBlock with a merge walk: positions are sorted, so a
// single forward pass over runs suffices.
func (b *RLEBlock) Gather(idx []int32, dst []int32) []int32 {
	ri := 0
	for _, i := range idx {
		for b.runs[ri].Start+b.runs[ri].Len <= i {
			ri++
		}
		dst = append(dst, b.runs[ri].Val)
	}
	return dst
}

// AggSelect implements IntBlock: each run contributes val x (number of
// selected positions inside the run), priced by a word-wise popcount over
// the selection bitmap — the paper's "sum over a run = value x run length"
// executed without decoding a single value.
func (b *RLEBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	for _, r := range b.runs {
		cnt := int64(r.Len)
		if sel != nil {
			cnt = int64(sel.CountRange(base+int(r.Start), base+int(r.Start+r.Len)))
		}
		acc.observe(r.Val, cnt)
	}
}

// GatherSelect implements IntBlock: one CountRange per run tells how many
// copies of the run value to emit, so output cost is proportional to the
// selection, never the block.
func (b *RLEBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	for _, r := range b.runs {
		cnt := int(r.Len)
		if sel != nil {
			cnt = sel.CountRange(base+int(r.Start), base+int(r.Start+r.Len))
		}
		for k := 0; k < cnt; k++ {
			dst = append(dst, r.Val)
		}
	}
	return dst
}

// FilterFunc implements IntBlock: one callback per run.
func (b *RLEBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	for _, r := range b.runs {
		if match(r.Val) {
			bm.SetRange(base+int(r.Start), base+int(r.Start+r.Len))
		}
	}
}

// CompressedBytes implements IntBlock: 12 bytes per run (value, start,
// length).
func (b *RLEBlock) CompressedBytes() int64 { return int64(len(b.runs)) * 12 }

// SortedFilterRange exploits a fully sorted block: when the block is sorted
// ascending, the set of positions matching an interval predicate is itself
// one contiguous range. Returns ok=false if the predicate has no interval
// bounds. start/end are block-local, end exclusive.
func (b *RLEBlock) SortedFilterRange(p Pred) (start, end int32, ok bool) {
	lo, hi, ok := p.Bounds()
	if !ok {
		return 0, 0, false
	}
	// First run with Val >= lo.
	i := sort.Search(len(b.runs), func(k int) bool { return b.runs[k].Val >= lo })
	// First run with Val > hi.
	j := sort.Search(len(b.runs), func(k int) bool { return b.runs[k].Val > hi })
	if i >= j {
		return 0, 0, true // empty match
	}
	return b.runs[i].Start, b.runs[j-1].Start + b.runs[j-1].Len, true
}
