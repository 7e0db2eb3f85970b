package compress

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"repro/internal/bitmap"
)

// selWords yields the block-local position i-base for every set bit i of
// sel within [base, base+n), walking the selection's words with
// trailing-zeros steps — one branch per selected position instead of a
// NextSet call per bit. The kernels' partial-selection arms range over it.
func selWords(sel *bitmap.Bitmap, base, n int) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		words := sel.Words()
		end := base + n
		if selLen := sel.Len(); end > selLen {
			end = selLen
		}
		for w := base / 64; w < len(words) && w*64 < end; w++ {
			word := words[w]
			if word == 0 {
				continue
			}
			if w*64 < base {
				word &= ^uint64(0) << uint(base-w*64)
			}
			if (w+1)*64 > end {
				word &= ^uint64(0) >> uint((w+1)*64-end)
			}
			for word != 0 {
				tz := mathbits.TrailingZeros64(word)
				word &= word - 1
				if !yield(w*64 + tz - base) {
					return
				}
			}
		}
	}
}

// AggAcc accumulates sum/count/min/max over the values an aggregation
// kernel visits. Sums are widened to int64 once per block (encodings that
// accumulate in code space add count*min at the end), so a full-column sum
// never overflows en route. The zero value is NOT ready to use — NewAggAcc
// seeds Min/Max with the identity elements.
type AggAcc struct {
	Sum   int64
	Count int64
	Min   int64
	Max   int64
}

// NewAggAcc returns an accumulator seeded with aggregation identities
// (Min = +inf, Max = -inf), matching ssb.AggFunc.Identity.
func NewAggAcc() AggAcc {
	return AggAcc{Min: math.MaxInt64, Max: math.MinInt64}
}

// Observe folds one value occurring cnt times into the accumulator. It is
// the scalar fallback executors use for encodings with no cheaper kernel.
func (a *AggAcc) Observe(v int32, cnt int64) { a.observe(v, cnt) }

// observe folds one value occurring cnt times into the accumulator.
func (a *AggAcc) observe(v int32, cnt int64) {
	if cnt <= 0 {
		return
	}
	a.Sum += int64(v) * cnt
	a.Count += cnt
	if int64(v) < a.Min {
		a.Min = int64(v)
	}
	if int64(v) > a.Max {
		a.Max = int64(v)
	}
}

// Encoding identifies a physical compression scheme for an int32 block.
// The values are the wire tags segment footers store, so they never change.
// Tags 3 (delta) and 4 (bit-vector) belonged to encodings retired in PR 24:
// no store ever held more than a handful of such blocks. They stay reserved
// — a new encoding takes 5 or above — so that a file written by an older
// build is rejected by Valid instead of being misread.
type Encoding uint8

const (
	// Plain stores values as a raw []int32 (4 bytes/value).
	Plain Encoding = 0
	// RLE stores (value, start, runLength) triples; ideal for sorted or
	// secondarily sorted columns.
	RLE Encoding = 1
	// BitPack stores values offset from the block minimum in the fewest
	// bits that cover the value range.
	BitPack Encoding = 2
)

// String returns the encoding name used in stats output.
func (e Encoding) String() string {
	switch e {
	case Plain:
		return "plain"
	case RLE:
		return "rle"
	case BitPack:
		return "bitpack"
	default:
		return "unknown"
	}
}

// Valid returns nil when e is the tag of a live encoding, and otherwise an
// error saying whether the tag is retired or was never assigned. It is the
// one definition of "known tag": DecodeBlock and the segment footer parse
// both reject through it.
func (e Encoding) Valid() error {
	switch e {
	case Plain, RLE, BitPack:
		return nil
	case 3, 4:
		return fmt.Errorf("compress: encoding tag %d: written with a retired encoding (delta/bitvec) — regenerate the store with ssb-gen -out", uint8(e))
	default:
		return fmt.Errorf("compress: unknown encoding tag %d", uint8(e))
	}
}

// IntBlock is one encoded block of int32 column values. Implementations
// support full decode, random access, predicate application directly on the
// compressed representation, and gather at sorted positions.
type IntBlock interface {
	// Len returns the number of values in the block.
	Len() int
	// Encoding identifies the physical scheme.
	Encoding() Encoding
	// MinMax returns the minimum and maximum value in the block.
	MinMax() (min, max int32)
	// AppendTo decodes the whole block, appending to dst.
	AppendTo(dst []int32) []int32
	// Get returns the value at index i (0-based within the block).
	Get(i int) int32
	// Filter applies p to every value and sets bit base+i in bm for each
	// match. Implementations exploit their representation (e.g. RLE sets
	// whole ranges per matching run).
	Filter(p Pred, base int, bm *bitmap.Bitmap)
	// FilterSet is the dense-membership analogue of Filter: it sets bit
	// base+i in bm for every value v at index i whose bit (v-setMin) is
	// set in set. Values outside [setMin, setMin+set.Len()) never match.
	// Implementations probe membership directly on the compressed
	// representation (RLE tests one bit per run, bit-packed blocks test 64
	// codes per result word), which is what makes the fused executor's
	// join probes branch-light.
	FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap)
	// Gather appends the values at the given sorted block-local indexes
	// to dst.
	Gather(idx []int32, dst []int32) []int32
	// AggSelect folds every value whose bit base+i is set in sel into acc
	// (sum, count, min, max) without materializing the block: RLE prices a
	// run as value x selected-run-length, and bit-packed blocks accumulate
	// in code space and widen once per block. sel may be nil, meaning every
	// value is selected.
	AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc)
	// GatherSelect appends the values at the selected positions (bits
	// base+i of sel, ascending) to dst — Gather driven by a bitmap instead
	// of an index list, so run/bitmap encodings can walk their compressed
	// representation once instead of random-accessing per position.
	GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32
	// FilterFunc sets bit base+i in bm for every value v with match(v),
	// calling match once per run / distinct value where the encoding
	// allows. It is the arbitrary-predicate analogue of Filter/FilterSet
	// for membership tests that are neither a Pred nor a dense set.
	FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap)
	// CompressedBytes is the size the block would occupy on disk; it
	// feeds the simulated I/O model.
	CompressedBytes() int64
}

// PlainBlock stores raw values.
type PlainBlock struct {
	vals     []int32
	min, max int32
}

// NewPlainBlock wraps vals in a PlainBlock. The slice is retained.
func NewPlainBlock(vals []int32) *PlainBlock {
	b := &PlainBlock{vals: vals}
	b.min, b.max = minMax(vals)
	return b
}

// setContains reports whether v is a member of the dense set anchored at
// setMin (bit k of set encodes value setMin+k).
func setContains(set *bitmap.Bitmap, setMin int32, v int32) bool {
	k := int64(v) - int64(setMin)
	return k >= 0 && k < int64(set.Len()) && set.Get(int(k))
}

func minMax(vals []int32) (int32, int32) {
	if len(vals) == 0 {
		return 0, 0
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Len implements IntBlock.
func (b *PlainBlock) Len() int { return len(b.vals) }

// Encoding implements IntBlock.
func (b *PlainBlock) Encoding() Encoding { return Plain }

// MinMax implements IntBlock.
func (b *PlainBlock) MinMax() (int32, int32) { return b.min, b.max }

// AppendTo implements IntBlock.
func (b *PlainBlock) AppendTo(dst []int32) []int32 {
	return append(dst, b.vals...)
}

// Get implements IntBlock.
func (b *PlainBlock) Get(i int) int32 { return b.vals[i] }

// Filter implements IntBlock: the test-and-pack step straight over the raw
// array — the "iterate through values directly as an array" behaviour block
// iteration relies on.
func (b *PlainBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	t := predTest(p)
	filterVals(b.vals, &t, base, bm)
}

// FilterSet implements IntBlock.
func (b *PlainBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	t := setTest(set, setMin)
	filterVals(b.vals, &t, base, bm)
}

// Gather implements IntBlock.
func (b *PlainBlock) Gather(idx []int32, dst []int32) []int32 {
	for _, i := range idx {
		dst = append(dst, b.vals[i])
	}
	return dst
}

// AggSelect implements IntBlock; being the raw-array encoding, this is the
// oracle the fuzz targets compare the native kernels against.
func (b *PlainBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	if sel == nil {
		foldVals(b.vals, acc)
		return
	}
	for pos := range selWords(sel, base, len(b.vals)) {
		acc.observe(b.vals[pos], 1)
	}
}

// GatherSelect implements IntBlock.
func (b *PlainBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	if sel == nil {
		return append(dst, b.vals...)
	}
	for pos := range selWords(sel, base, len(b.vals)) {
		dst = append(dst, b.vals[pos])
	}
	return dst
}

// FilterFunc implements IntBlock.
func (b *PlainBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	filterVals(b.vals, &groupTest{kind: testFunc, match: match}, base, bm)
}

// CompressedBytes implements IntBlock.
func (b *PlainBlock) CompressedBytes() int64 { return int64(len(b.vals)) * 4 }
