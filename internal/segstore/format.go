// Package segstore is the persistent storage layer: an on-disk columnar
// format that splits every column into 64K-row segments stored compressed
// (each segment keeps the encoding internal/compress chose for it), plus a
// buffer manager that lets executors fault segments in lazily under a byte
// budget instead of holding whole columns in memory.
//
// File layout (all integers little-endian):
//
//	magic     8   "SSBSEGM1"
//	sf        8   float64 bits
//	payloads  ...                 segment payloads, back to back, in
//	                              footer order (compress wire format)
//	footer    ...                 directory of tables/columns/segments
//	crc32     4   checksum of the footer bytes
//	footerLen 8   length of the footer bytes
//	magic     8   trailing "SSBSEGM1" (locates the footer from the end)
//
// The footer holds, per table and per column, the column's name, sort kind,
// optional order-preserving dictionary, and one zone-map entry per segment:
// file offset, payload length, encoding tag, row count, min/max, and a
// CRC32 of the payload. Zone maps are the pruning mechanism — a reader
// answers min/max, row-count, and encoding queries from the footer alone,
// so a segment a predicate cannot match is never read or decompressed.
// Every segment except a column's last holds exactly colstore.BlockSize
// rows, which positional addressing relies on.
//
// Encoding tags (compress.Encoding, one byte per zone-map entry):
//
//	0  plain
//	1  rle
//	2  bitpack
//	3  retired (delta)       never reuse: stores written before PR 24
//	4  retired (bit-vector)  may hold such a segment, and Open must keep
//	                         rejecting them by tag
//
// A footer naming a retired or unassigned tag fails Open (compress.Valid
// is the one definition of "known"); a retired one says to regenerate the
// store with ssb-gen -out.
//
// The format stores the *physical* database — dimension tables sorted by
// their attribute hierarchies, fact foreign keys rewritten to dimension
// positions, strings dictionary-encoded — so opening a file yields tables
// the column executor can run against directly, with no rebuild pass.
//
// Files grow in place: the tuple mover appends frozen write-store blocks
// through Store.Append (append.go), which writes new segment payloads, a
// fresh footer and a new trailer strictly after the current trailer —
// nothing earlier is ever overwritten, at the cost of one superseded
// directory left behind as dead bytes per append. Directory snapshots
// taken before an append keep scanning exactly what they saw, and a torn
// append is recovered at open by scanning backward to the previous valid
// trailer (locateFooter) instead of losing the file.
package segstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// Magic identifies a segment-store file: the first and the last eight bytes
// of every store. Open rejects a file that does not begin with it.
const Magic = "SSBSEGM1"

// segMeta is one segment's zone-map entry.
type segMeta struct {
	off  uint64
	plen uint64
	// cbytes is the block's model-accounting size (IntBlock.CompressedBytes),
	// persisted so segment-backed columns report byte-identical footprints
	// and logical I/O charges to their resident counterparts. It differs
	// from plen by the wire format's small structural headers.
	cbytes uint64
	enc    compress.Encoding
	rows   uint32
	min    int32
	max    int32
	crc    uint32
	// pid is the segment's buffer-pool frame id within its column — the
	// key the pool caches decoded blocks under. It is runtime-only (never
	// persisted): base segments get their footer index at open, appended
	// and tail-replacement segments get fresh ids, so a store snapshot
	// taken before an append can never collide in the pool with the
	// different segment that now occupies the same live index.
	pid int32
}

// colMeta is one column's footer entry.
type colMeta struct {
	table string
	name  string
	sort  colstore.SortKind
	dict  *compress.Dict
	segs  []segMeta
	ord   int32 // global column ordinal, the pool key namespace
}

// tableMeta is one table's footer entry.
type tableMeta struct {
	name string
	cols []*colMeta
}

// footerWriter accumulates the footer byte stream.
type footerWriter struct{ buf []byte }

func (w *footerWriter) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *footerWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *footerWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *footerWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *footerWriter) str16(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *footerWriter) str32(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// encodeFooter renders the directory.
func encodeFooter(tables []*tableMeta) []byte {
	w := &footerWriter{}
	w.u32(uint32(len(tables)))
	for _, t := range tables {
		w.str16(t.name)
		w.u32(uint32(len(t.cols)))
		for _, c := range t.cols {
			w.str16(c.name)
			w.u8(byte(c.sort))
			if c.dict != nil {
				w.u8(1)
				vals := c.dict.Values()
				w.u32(uint32(len(vals)))
				for _, v := range vals {
					w.str32(v)
				}
			} else {
				w.u8(0)
			}
			w.u32(uint32(len(c.segs)))
			for _, s := range c.segs {
				w.u64(s.off)
				w.u64(s.plen)
				w.u64(s.cbytes)
				w.u8(byte(s.enc))
				w.u32(s.rows)
				w.u32(uint32(s.min))
				w.u32(uint32(s.max))
				w.u32(s.crc)
			}
		}
	}
	return w.buf
}

// footerReader walks the footer with bounds checking.
type footerReader struct {
	data []byte
	pos  int
	bad  bool
}

func (r *footerReader) u8() byte {
	if r.pos+1 > len(r.data) {
		r.bad = true
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *footerReader) u16() uint16 {
	if r.pos+2 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v
}

func (r *footerReader) u32() uint32 {
	if r.pos+4 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *footerReader) u64() uint64 {
	if r.pos+8 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *footerReader) strN(n int) string {
	if n < 0 || r.pos+n > len(r.data) {
		r.bad = true
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// decodeFooter parses the directory, assigning global column ordinals in
// footer order.
func decodeFooter(data []byte) ([]*tableMeta, error) {
	r := &footerReader{data: data}
	ntables := int(r.u32())
	if r.bad || ntables < 0 || ntables > 1<<10 {
		return nil, fmt.Errorf("segstore: implausible table count %d in footer", ntables)
	}
	ord := int32(0)
	tables := make([]*tableMeta, 0, ntables)
	for ti := 0; ti < ntables; ti++ {
		t := &tableMeta{name: r.strN(int(r.u16()))}
		ncols := int(r.u32())
		if r.bad || ncols < 0 || ncols > 1<<16 {
			return nil, fmt.Errorf("segstore: table %q: implausible column count %d", t.name, ncols)
		}
		for ci := 0; ci < ncols; ci++ {
			c := &colMeta{table: t.name, name: r.strN(int(r.u16())), ord: ord}
			ord++
			c.sort = colstore.SortKind(r.u8())
			if c.sort > colstore.SecondarySort {
				return nil, fmt.Errorf("segstore: table %q column %q: bad sort kind %d", t.name, c.name, c.sort)
			}
			if hasDict := r.u8(); hasDict == 1 {
				nvals := int(r.u32())
				if r.bad || nvals < 0 || nvals > 1<<24 {
					return nil, fmt.Errorf("segstore: table %q column %q: implausible dictionary size %d", t.name, c.name, nvals)
				}
				vals := make([]string, nvals)
				for i := range vals {
					vals[i] = r.strN(int(r.u32()))
				}
				if r.bad {
					return nil, fmt.Errorf("segstore: table %q column %q: truncated dictionary", t.name, c.name)
				}
				c.dict = compress.BuildDict(vals)
			} else if hasDict != 0 {
				return nil, fmt.Errorf("segstore: table %q column %q: bad dictionary flag %d", t.name, c.name, hasDict)
			}
			nsegs := int(r.u32())
			if r.bad || nsegs < 0 || nsegs > 1<<24 {
				return nil, fmt.Errorf("segstore: table %q column %q: implausible segment count %d", t.name, c.name, nsegs)
			}
			c.segs = make([]segMeta, nsegs)
			for i := range c.segs {
				s := &c.segs[i]
				s.off = r.u64()
				s.plen = r.u64()
				s.cbytes = r.u64()
				s.enc = compress.Encoding(r.u8())
				s.rows = r.u32()
				s.min = int32(r.u32())
				s.max = int32(r.u32())
				s.crc = r.u32()
				if err := s.enc.Valid(); err != nil {
					return nil, fmt.Errorf("segstore: table %q column %q segment %d: %w", t.name, c.name, i, err)
				}
				// Positional addressing requires full blocks everywhere
				// but the tail.
				if i < nsegs-1 && s.rows != colstore.BlockSize {
					return nil, fmt.Errorf("segstore: table %q column %q segment %d: interior segment has %d rows, want %d", t.name, c.name, i, s.rows, colstore.BlockSize)
				}
			}
			t.cols = append(t.cols, c)
		}
		tables = append(tables, t)
	}
	if r.bad {
		return nil, fmt.Errorf("segstore: truncated footer")
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("segstore: %d trailing bytes after footer directory", len(data)-r.pos)
	}
	return tables, nil
}
