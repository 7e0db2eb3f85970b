// Package segstore is the persistent storage layer: an on-disk columnar
// format that splits every column into 64K-row segments stored compressed
// (each segment keeps the encoding internal/compress chose for it), plus a
// buffer manager that lets executors fault segments in lazily under a byte
// budget instead of holding whole columns in memory.
//
// File layout (all integers little-endian):
//
//	magic     8   "SSBSEGM2"
//	sf        8   float64 bits
//	payloads  ...                 segment payloads, back to back, in
//	                              footer order (compress wire format)
//	footer    ...                 directory of tables/columns/segments
//	crc32     4   checksum of the footer bytes
//	footerLen 8   length of the footer bytes
//	magic     8   trailing "SSBSEGM2" (locates the footer from the end)
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
// A column's dictionary follows a one-byte flag:
//
//	0  no dictionary
//	1  inline: u32 value count, then per value a u32 length and its bytes,
//	   the values strictly ascending (their codes are their positions)
//	2  reference: u64 file offset, u64 length and u32 CRC32 of the inline
//	   encoding (the bytes after a flag 1) in an earlier footer of the
//	   same file
//
// Save writes every dictionary inline. An appended footer references each
// dictionary the file already holds, so a tuple-mover pass writes only the
// directory that changed, not the dimension dictionaries that never do. A
// reference must lie wholly between the header and the start of the footer
// naming it, match its CRC and parse as exactly one dictionary, or Open
// fails naming the table and column. It stays valid because nothing before
// the live trailer is ever overwritten (see below). A build that predates
// flag 2 refuses an appended file with "bad dictionary flag 2": it fails
// closed rather than misread it.
//
// Open also refuses, naming the table and column, a dictionary (inline or
// referenced) whose values are duplicated or out of order: re-sorting it
// would remap the codes its segments store.
//
// After its columns, each table's footer entry carries its Checkpoint: the
// count of write-ahead-logged insert rows the table has absorbed (u64) and
// its deletion vector as sorted, disjoint runs (u32 count, then u32 start
// and u32 length per run). Every footer is a complete recovery record, so a
// reopen needs the log only for what happened after the footer was written.
//
// The trailing digit of the magic is the format version. Version 1 footers
// carry no checkpoint; Open refuses them and says to regenerate the store
// with ssb-gen -out.
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
// fresh footer and a new trailer strictly after the current trailer
// (Store.SetCheckpoint writes the footer and trailer alone) — nothing
// earlier is ever overwritten. Each append leaves the superseded footer
// behind; it is dead bytes except for the dictionaries later footers
// reference, so what an append leaves is its directory's zone maps and
// checkpoints, not a copy of every dictionary. Directory snapshots
// taken before an append keep scanning exactly what they saw, and a torn
// append is recovered at open by scanning backward to the previous valid
// trailer (locateFooter) instead of losing the file.
package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
)

// Magic identifies a segment-store file: the first and the last eight bytes
// of every store. Open rejects a file that does not begin with it.
const Magic = "SSBSEGM2"

// magicV1 begins a store written before footers carried a Checkpoint.
const magicV1 = "SSBSEGM1"

// headerLen is the size of the file header: the magic and the scale factor.
const headerLen = len(Magic) + 8

// segEntryBytes is one zone-map entry's size in the footer.
const segEntryBytes = 8 + 8 + 8 + 1 + 4 + 4 + 4 + 4

// Dictionary flags: what follows a column's dictionary flag byte.
const (
	dictNone   = 0 // no dictionary
	dictInline = 1 // the dictionary's values
	dictRef    = 2 // a dictLoc naming the inline values in an earlier footer
)

// dictLoc locates a dictionary's inline encoding in the file: n bytes at
// off whose CRC32 is crc. n == 0 means the dictionary has no known place in
// the file yet, so the next footer writes it inline.
type dictLoc struct {
	off, n uint64
	crc    uint32
}

// placedDict is a dictionary encodeFooter wrote inline: the column, and
// where its bytes sit with off relative to the footer's start.
type placedDict struct {
	col *colMeta
	at  dictLoc
}

// Checkpoint is the write path's recovery record for one table, carried in
// every footer: how far into the write-ahead log's insert stream the table
// reaches, and which of its rows are deleted. Recovery reads it instead of
// reconstructing it from row counts.
type Checkpoint struct {
	// LogRows counts the logged insert rows the table has absorbed: sealed
	// into it, or dropped on the way because they were deleted first. A log
	// numbers its insert rows from 0 in insert order, so replay skips every
	// row numbered below LogRows.
	LogRows int64
	// Deleted marks the table's deleted rows; nil when there are none.
	Deleted *bitmap.Bitmap
}

// delRun is one run of deleted rows in a footer: [start, start+n).
type delRun struct{ start, n uint32 }

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
	// dictAt is where dict's inline bytes already lie in the file, so a
	// footer written after them references them instead of repeating them.
	// Open sets it from the footer it parses, Append carries it to the
	// column's next colMeta, and commit sets it for a dictionary it wrote
	// inline. Only the append path reads it, under Store.appendMu.
	dictAt dictLoc
	segs   []segMeta
	ord    int32 // global column ordinal, the pool key namespace
}

// tableMeta is one table's footer entry.
type tableMeta struct {
	name string
	cols []*colMeta
	// logRows and deleted are the table's Checkpoint.
	logRows int64
	deleted []delRun
}

// rows is the table's row count: its first column's (every column has it).
func (t *tableMeta) rows() uint64 {
	var n uint64
	if len(t.cols) > 0 {
		for _, s := range t.cols[0].segs {
			n += uint64(s.rows)
		}
	}
	return n
}

// setCheckpoint records ck on t as the footer stores it, refusing a
// deletion vector that marks rows past the table's end.
func (t *tableMeta) setCheckpoint(ck Checkpoint) error {
	if ck.LogRows < 0 {
		return fmt.Errorf("segstore: table %q: negative checkpoint log rows %d", t.name, ck.LogRows)
	}
	t.logRows, t.deleted = ck.LogRows, nil
	if ck.Deleted == nil {
		return nil
	}
	rows := t.rows()
	for i := ck.Deleted.NextSet(0); i >= 0; {
		j := i + 1
		for j < ck.Deleted.Len() && ck.Deleted.Get(j) {
			j++
		}
		if uint64(j) > rows {
			return fmt.Errorf("segstore: table %q: deletion vector marks row %d of %d", t.name, j-1, rows)
		}
		t.deleted = append(t.deleted, delRun{start: uint32(i), n: uint32(j - i)})
		i = ck.Deleted.NextSet(j)
	}
	return nil
}

// checkpoint renders t's Checkpoint back into a deletion bitmap.
func (t *tableMeta) checkpoint() Checkpoint {
	ck := Checkpoint{LogRows: t.logRows}
	if len(t.deleted) > 0 {
		ck.Deleted = bitmap.New(int(t.rows()))
		for _, r := range t.deleted {
			ck.Deleted.SetRange(int(r.start), int(r.start+r.n))
		}
	}
	return ck
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

// encodeFooter renders the directory. A dictionary whose bytes the file
// already holds (colMeta.dictAt) is written as a reference; any other is
// written inline and returned in placed.
func encodeFooter(tables []*tableMeta) (footer []byte, placed []placedDict) {
	w := &footerWriter{}
	w.u32(uint32(len(tables)))
	for _, t := range tables {
		w.str16(t.name)
		w.u32(uint32(len(t.cols)))
		for _, c := range t.cols {
			w.str16(c.name)
			w.u8(byte(c.sort))
			switch {
			case c.dict == nil:
				w.u8(dictNone)
			case c.dictAt.n > 0:
				w.u8(dictRef)
				w.u64(c.dictAt.off)
				w.u64(c.dictAt.n)
				w.u32(c.dictAt.crc)
			default:
				w.u8(dictInline)
				start := len(w.buf)
				w.u32(uint32(c.dict.Size()))
				for i := range c.dict.Size() {
					w.str32(c.dict.Value(int32(i)))
				}
				placed = append(placed, placedDict{col: c, at: dictLoc{
					off: uint64(start),
					n:   uint64(len(w.buf) - start),
					crc: crc32.ChecksumIEEE(w.buf[start:]),
				}})
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
		w.u64(uint64(t.logRows))
		w.u32(uint32(len(t.deleted)))
		for _, r := range t.deleted {
			w.u32(r.start)
			w.u32(r.n)
		}
	}
	return w.buf, placed
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

// left is the count of unread bytes: a bound on any count the footer claims,
// so a corrupt count fails before it sizes an allocation.
func (r *footerReader) left() int { return len(r.data) - r.pos }

func (r *footerReader) strN(n int) string {
	if n < 0 || r.pos+n > len(r.data) {
		r.bad = true
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// dict reads one dictionary's inline encoding — a u32 count, then each
// value as a u32 length and its bytes — into one string and an offset array,
// with no string per value: a first pass bounds-checks the lengths and sizes
// the string, a second copies the bytes. The values must be strictly
// ascending, as every writer stores them (codes follow that order).
func (r *footerReader) dict() (*compress.Dict, error) {
	nvals := int(r.u32())
	if r.bad || nvals < 0 || nvals > 1<<24 || nvals > r.left()/4 {
		return nil, fmt.Errorf("truncated or implausible dictionary (%d values)", nvals)
	}
	start, total := r.pos, 0
	for range nvals {
		n := int(r.u32())
		if r.bad || n > r.left() {
			r.bad = true
			return nil, fmt.Errorf("truncated dictionary")
		}
		r.pos += n
		total += n
	}
	if uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("dictionary of %d bytes overflows its 32-bit offsets", total)
	}
	var b strings.Builder
	b.Grow(total)
	offs := make([]uint32, 1, nvals+1)
	for p := start; p < r.pos; {
		n := int(binary.LittleEndian.Uint32(r.data[p:]))
		b.Write(r.data[p+4 : p+4+n])
		p += 4 + n
		offs = append(offs, uint32(b.Len()))
	}
	return compress.NewSortedDict(b.String(), offs)
}

// decodeFooter parses the directory found at file offset at, assigning
// global column ordinals in footer order. read returns n bytes of the file
// at off; it resolves dictionary references, each of which must lie between
// the header and at.
func decodeFooter(data []byte, at int64, read func(off int64, n int) ([]byte, error)) ([]*tableMeta, error) {
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
			switch flag := r.u8(); flag {
			case dictNone:
			case dictInline:
				start := r.pos
				dict, err := r.dict()
				if err != nil {
					return nil, fmt.Errorf("segstore: table %q column %q: %w", t.name, c.name, err)
				}
				c.dict = dict
				c.dictAt = dictLoc{off: uint64(at) + uint64(start), n: uint64(r.pos - start), crc: crc32.ChecksumIEEE(data[start:r.pos])}
			case dictRef:
				loc := dictLoc{off: r.u64(), n: r.u64(), crc: r.u32()}
				if r.bad {
					return nil, fmt.Errorf("segstore: table %q column %q: truncated dictionary reference", t.name, c.name)
				}
				dict, err := resolveDict(loc, at, read)
				if err != nil {
					return nil, fmt.Errorf("segstore: table %q column %q: %w", t.name, c.name, err)
				}
				c.dict, c.dictAt = dict, loc
			default:
				return nil, fmt.Errorf("segstore: table %q column %q: bad dictionary flag %d", t.name, c.name, flag)
			}
			nsegs := int(r.u32())
			if r.bad || nsegs < 0 || nsegs > 1<<24 || nsegs > r.left()/segEntryBytes {
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
		t.logRows = int64(r.u64())
		nruns := int(r.u32())
		if r.bad || t.logRows < 0 || nruns > r.left()/8 {
			return nil, fmt.Errorf("segstore: table %q: implausible checkpoint (log rows %d, %d deletion runs)", t.name, t.logRows, nruns)
		}
		rows, end := t.rows(), uint64(0)
		for i := 0; i < nruns; i++ {
			run := delRun{start: r.u32(), n: r.u32()}
			if run.n == 0 || uint64(run.start) < end || uint64(run.start)+uint64(run.n) > rows {
				return nil, fmt.Errorf("segstore: table %q: deletion run %d [%d,+%d) is empty, out of order or past the table's %d rows", t.name, i, run.start, run.n, rows)
			}
			end = uint64(run.start) + uint64(run.n)
			t.deleted = append(t.deleted, run)
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

// resolveDict reads the dictionary loc references, for a footer at file
// offset at: the bytes must lie in [headerLen, at), match loc's CRC and be
// exactly one inline dictionary.
func resolveDict(loc dictLoc, at int64, read func(off int64, n int) ([]byte, error)) (*compress.Dict, error) {
	// Check the length before offset+length so a crafted n cannot wrap.
	if at < int64(headerLen) || loc.n > uint64(at) || loc.off < uint64(headerLen) || loc.off > uint64(at)-loc.n {
		return nil, fmt.Errorf("dictionary reference [%d,+%d) is not within [%d,%d), the bytes before its footer", loc.off, loc.n, headerLen, at)
	}
	b, err := read(int64(loc.off), int(loc.n))
	if err != nil {
		return nil, fmt.Errorf("reading referenced dictionary [%d,+%d): %w", loc.off, loc.n, err)
	}
	if crc := crc32.ChecksumIEEE(b); crc != loc.crc {
		return nil, fmt.Errorf("referenced dictionary [%d,+%d) checksum mismatch (file corrupt): got %08x want %08x", loc.off, loc.n, crc, loc.crc)
	}
	r := &footerReader{data: b}
	dict, err := r.dict()
	if err != nil {
		return nil, fmt.Errorf("referenced bytes [%d,+%d) are not one dictionary: %w", loc.off, loc.n, err)
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("referenced bytes [%d,+%d) are not one dictionary", loc.off, loc.n)
	}
	return dict, nil
}
