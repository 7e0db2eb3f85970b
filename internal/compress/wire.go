package compress

import (
	"encoding/binary"
	"fmt"
)

// This file is the wire format for encoded blocks: the byte layout a block
// occupies inside a segment file (internal/segstore). Each encoding
// serializes its in-memory representation directly — deserializing
// reconstructs the identical block, so predicate application, membership
// probes, and gathers over a block loaded from disk behave bit-for-bit like
// the block the writer held. All integers are little-endian.
//
// The payload carries no encoding tag, row count, or checksum of its own;
// the segment file's zone-map entry stores those (encoding, rows, min/max,
// CRC32), which is what lets readers prune a segment from its zone map
// without ever touching the payload.

// AppendBlock serializes b's encoded representation, appending to dst.
func AppendBlock(b IntBlock, dst []byte) []byte {
	switch blk := b.(type) {
	case *PlainBlock:
		for _, v := range blk.vals {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case *RLEBlock:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blk.runs)))
		for _, r := range blk.runs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Val))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Start))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Len))
		}
	case *BitPackBlock:
		dst = append(dst, byte(blk.width))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(blk.min))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(blk.max))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blk.words)/8))
		dst = append(dst, blk.words...)
	default:
		panic(fmt.Sprintf("compress: no wire format for %T", b))
	}
	return dst
}

// wireReader walks a payload with bounds checking; any overrun marks the
// reader bad and subsequent reads return zero, so decoders can validate once
// at the end instead of after every field.
type wireReader struct {
	data []byte
	pos  int
	bad  bool
}

func (r *wireReader) u8() byte {
	if r.pos+1 > len(r.data) {
		r.bad = true
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.pos+4 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

// words returns the next n 64-bit words as a view of the payload, not a
// copy. Its capacity ends with it, so an append to the view cannot write
// into the bytes after it.
func (r *wireReader) words(n int) []byte {
	end := r.pos + 8*n
	if n < 0 || end > len(r.data) {
		r.bad = true
		return nil
	}
	out := r.data[r.pos:end:end]
	r.pos = end
	return out
}

// done reports whether the payload was consumed exactly and without overrun.
func (r *wireReader) done() bool { return !r.bad && r.pos == len(r.data) }

// DecodeBlock reconstructs a block of rows values from its wire payload.
// enc and rows come from the segment's zone-map entry. The payload is
// structurally validated (sizes, run coverage, widths); content integrity is
// the caller's CRC.
//
// The result may alias data: a bit-packed block is a view over the payload's
// packed words, so for a bit-packed block DecodeBlock only validates. The
// caller must not modify or reuse data while the block is in use.
func DecodeBlock(enc Encoding, rows int, data []byte) (IntBlock, error) {
	if rows < 0 {
		return nil, fmt.Errorf("compress: negative row count %d", rows)
	}
	r := &wireReader{data: data}
	switch enc {
	case Plain:
		if len(data) != 4*rows {
			return nil, fmt.Errorf("compress: plain payload is %d bytes, want %d for %d rows", len(data), 4*rows, rows)
		}
		vals := make([]int32, rows)
		for i := range vals {
			vals[i] = int32(r.u32())
		}
		return NewPlainBlock(vals), nil
	case RLE:
		nruns := int(r.u32())
		if r.bad || nruns < 0 || len(data) != 4+12*nruns {
			return nil, fmt.Errorf("compress: rle payload is %d bytes, want %d for %d runs", len(data), 4+12*nruns, nruns)
		}
		b := &RLEBlock{n: rows, runs: make([]Run, nruns)}
		next := int32(0)
		for i := range b.runs {
			run := Run{Val: int32(r.u32()), Start: int32(r.u32()), Len: int32(r.u32())}
			if run.Start != next || run.Len <= 0 {
				return nil, fmt.Errorf("compress: rle run %d does not tile the block (start %d len %d, expected start %d)", i, run.Start, run.Len, next)
			}
			next = run.Start + run.Len
			b.runs[i] = run
			if i == 0 || run.Val < b.min {
				b.min = run.Val
			}
			if i == 0 || run.Val > b.max {
				b.max = run.Val
			}
		}
		if int(next) != rows {
			return nil, fmt.Errorf("compress: rle runs cover %d rows, want %d", next, rows)
		}
		return b, nil
	case BitPack:
		width := uint(r.u8())
		mn, mx := int32(r.u32()), int32(r.u32())
		nwords := int(r.u32())
		words := r.words(nwords)
		if !r.done() || width < 1 || width > 32 {
			return nil, fmt.Errorf("compress: malformed bitpack payload (%d bytes, width %d)", len(data), width)
		}
		if want := int((uint(rows)*width + 63) / 64); nwords != want {
			return nil, fmt.Errorf("compress: bitpack has %d words, want %d for %d rows at width %d", nwords, want, rows, width)
		}
		return &BitPackBlock{words: words, width: width, n: rows, min: mn, max: mx}, nil
	default:
		// Every live tag has an arm above, so this is always an error.
		return nil, enc.Valid()
	}
}
