package compress

// Choose encodes vals with the smallest of the three encodings — plain,
// RLE, bit-packed — mirroring how a column-store's storage manager picks a
// per-segment scheme; nothing but CompressedBytes decides, and a tie goes to
// the earlier of that order. The sizes are computed without building the
// candidates (TestChoosePicksSensibly pins that they equal the blocks' own
// CompressedBytes). Forced Plain (compression disabled) is expressed by
// calling NewPlainBlock directly.
func Choose(vals []int32) IntBlock {
	n := len(vals)
	plainBytes := int64(n) * 4
	rleBytes := int64(CountRuns(vals)) * 12
	mn, mx := minMax(vals)
	packBytes := int64((n*int(PackWidth(mn, mx))+63)/64)*8 + 16
	switch {
	case plainBytes <= rleBytes && plainBytes <= packBytes:
		return NewPlainBlock(vals)
	case rleBytes <= packBytes:
		return NewRLEBlock(vals)
	default:
		return NewBitPackBlock(vals)
	}
}
