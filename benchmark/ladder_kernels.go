package main

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/segstore"
)

// factTable is the fact table's name in the segment file.
const factTable = "lineorder"

func factColumn(st *segstore.Store, name string) (*colstore.Column, error) {
	tbl, err := st.Table(factTable)
	if err != nil {
		return nil, err
	}
	return tbl.Column(name)
}

// kernelSink keeps kernel results alive.
var kernelSink int

// kernels times the compressed-block kernels on blocks taken from the real
// fact columns, through the compress.IntBlock interface only, in ns/value.
func (l *ladder) kernels() error {
	st, err := segstore.Open(l.e.segPath, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	tbl, err := st.Table(factTable)
	if err != nil {
		return err
	}
	// The middle block of the first column that uses the encoding.
	pick := func(enc compress.Encoding) (compress.IntBlock, func(), error) {
		for _, name := range tbl.ColumnNames() {
			col := tbl.MustColumn(name)
			if i := col.NumBlocks() / 2; col.BlockEncoding(i) == enc {
				blk, release := col.AcquireBlock(i)
				return blk, release, nil
			}
		}
		return nil, nil, fmt.Errorf("no fact column is %s-encoded", enc)
	}
	rle, release, err := pick(compress.RLE)
	if err != nil {
		return err
	}
	defer release()
	bp, release, err := pick(compress.BitPack)
	if err != nil {
		return err
	}
	defer release()

	// A kernel call takes microseconds, so each timing covers a few calls.
	const calls = 16
	timeCalls := func(fn func()) float64 {
		return float64(timeMedian(cheapReps, func() {
			for i := 0; i < calls; i++ {
				fn()
			}
		})) / calls
	}
	perValue := func(name string, blk compress.IntBlock, fn func()) {
		l.m.set(name, timeCalls(fn)/float64(blk.Len()), cheapReps)
	}
	// Predicates and selections that keep about half of the block.
	halfRange := func(blk compress.IntBlock) compress.Pred {
		lo, hi := blk.MinMax()
		return compress.Between(lo, lo+(hi-lo)/2)
	}
	alternate := func(n int) *bitmap.Bitmap {
		bm := bitmap.New(n)
		for i := 0; i < n; i += 2 {
			bm.Set(i)
		}
		return bm
	}
	out := bitmap.New(max(rle.Len(), bp.Len()))
	for _, k := range []struct {
		name string
		blk  compress.IntBlock
	}{{"compress.filter_rle_ns", rle}, {"compress.filter_bitpack_ns", bp}} {
		p := halfRange(k.blk)
		perValue(k.name, k.blk, func() { out.Reset(); k.blk.Filter(p, 0, out) })
	}
	lo, hi := bp.MinMax()
	set := alternate(int(hi-lo) + 1)
	perValue("compress.filterset_bitpack_ns", bp, func() { out.Reset(); bp.FilterSet(set, lo, 0, out) })
	for _, k := range []struct {
		name string
		blk  compress.IntBlock
	}{{"compress.aggselect_rle_ns", rle}, {"compress.aggselect_bitpack_ns", bp}} {
		sel := alternate(k.blk.Len())
		perValue(k.name, k.blk, func() {
			acc := compress.NewAggAcc()
			k.blk.AggSelect(sel, 0, &acc)
			kernelSink += int(acc.Count)
		})
	}
	sel := alternate(bp.Len())
	dst := make([]int32, 0, bp.Len())
	perValue("compress.gatherselect_bitpack_ns", bp, func() { kernelSink += len(bp.GatherSelect(sel, 0, dst[:0])) })

	// Wire decode: what a pool miss pays after the read.
	wire := compress.AppendBlock(bp, nil)
	var derr error
	decodeNs := timeCalls(func() {
		if _, err := compress.DecodeBlock(bp.Encoding(), bp.Len(), wire); err != nil {
			derr = err
		}
	})
	l.m.set("compress.decode_wire_mb_s", float64(len(wire))/1e6/(decodeNs/1e9), cheapReps)

	a, b := alternate(1<<16), bitmap.NewFull(1<<16)
	andNs := timeCalls(func() { kernelSink += a.AndCountAt(b, 0) })
	l.m.set("bitmap.and_count_ns_per_kbit", andNs/64, cheapReps)
	return derr
}
