// Package rowstore implements the storage layer of "System X", the
// commercial row-oriented DBMS the paper compares against: slotted heap
// pages holding tuples with per-tuple headers, optional horizontal
// partitioning, vertical two-column partitions, and materialized views
// (paper Section 4).
//
// The costs the paper attributes to row stores are physical here: every
// tuple carries a header (TupleHeaderBytes), vertical partitions duplicate a
// record-id per value, and all reads are whole-tuple reads charged to the
// I/O model page by page.
package rowstore

import (
	"encoding/binary"
	"fmt"
)

// ColType is the physical type of a row-store column.
type ColType uint8

const (
	// TInt is a 4-byte little-endian integer field.
	TInt ColType = iota
	// TStr is a length-prefixed string field.
	TStr
)

// Schema describes tuple layout: field names and types in storage order.
type Schema struct {
	Names []string
	Types []ColType
	index map[string]int
}

// NewSchema builds a schema; names and types must be parallel.
func NewSchema(names []string, types []ColType) *Schema {
	if len(names) != len(types) {
		panic("rowstore: schema names/types length mismatch")
	}
	s := &Schema{Names: names, Types: types, index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			panic(fmt.Sprintf("rowstore: duplicate schema column %q", n))
		}
		s.index[n] = i
	}
	return s
}

// NumCols returns the field count.
func (s *Schema) NumCols() int { return len(s.Names) }

// ColIndex returns the ordinal of the named column, or an error.
func (s *Schema) ColIndex(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("rowstore: no column %q in schema %v", name, s.Names)
	}
	return i, nil
}

// MustColIndex is ColIndex for statically known names.
func (s *Schema) MustColIndex(name string) int {
	i, err := s.ColIndex(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Project returns a new schema containing only the named columns, in the
// given order.
func (s *Schema) Project(names []string) *Schema {
	types := make([]ColType, len(names))
	for i, n := range names {
		types[i] = s.Types[s.MustColIndex(n)]
	}
	return NewSchema(append([]string(nil), names...), types)
}

// Value is one field of a row: I for TInt columns, S for TStr columns.
type Value struct {
	I int32
	S string
}

// Row is a decoded tuple in schema order.
type Row []Value

// TupleHeaderBytes is the per-tuple storage overhead. The paper measures
// about 8 bytes of overhead per row in System X plus a 4-byte record-id
// where one must be stored explicitly; we charge the 8-byte header on every
// stored tuple.
const TupleHeaderBytes = 8

// EncodedSize returns the on-page size of row under schema s, including the
// tuple header.
func (s *Schema) EncodedSize(r Row) int {
	n := TupleHeaderBytes
	for i, t := range s.Types {
		if t == TInt {
			n += 4
		} else {
			n += 2 + len(r[i].S)
		}
	}
	return n
}

// Encode appends the serialized tuple (header + fields) to dst.
func (s *Schema) Encode(r Row, dst []byte) []byte {
	// Header: tuple length placeholder + null bitmap space; contents are
	// irrelevant, only the bytes-on-disk matter to the experiments.
	var hdr [TupleHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(s.EncodedSize(r)))
	dst = append(dst, hdr[:]...)
	for i, t := range s.Types {
		if t == TInt {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(r[i].I))
			dst = append(dst, b[:]...)
		} else {
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], uint16(len(r[i].S)))
			dst = append(dst, b[:]...)
			dst = append(dst, r[i].S...)
		}
	}
	return dst
}

// DecodeInto parses the tuple at buf into row, which must have NumCols
// slots. It returns the number of bytes consumed.
func (s *Schema) DecodeInto(buf []byte, row Row) int {
	off := TupleHeaderBytes
	for i, t := range s.Types {
		if t == TInt {
			row[i].I = int32(binary.LittleEndian.Uint32(buf[off:]))
			row[i].S = ""
			off += 4
		} else {
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			row[i].S = string(buf[off : off+l])
			row[i].I = 0
			off += l
		}
	}
	return off
}

// DecodeCol extracts a single field from the tuple at buf without decoding
// the rest — but note it still walks the preceding variable-width fields,
// which is exactly the per-tuple attribute-extraction cost row stores pay
// (paper Section 5.3).
func (s *Schema) DecodeCol(buf []byte, col int) Value {
	off := TupleHeaderBytes
	for i := 0; i < col; i++ {
		if s.Types[i] == TInt {
			off += 4
		} else {
			off += 2 + int(binary.LittleEndian.Uint16(buf[off:]))
		}
	}
	if s.Types[col] == TInt {
		return Value{I: int32(binary.LittleEndian.Uint32(buf[off:]))}
	}
	l := int(binary.LittleEndian.Uint16(buf[off:]))
	return Value{S: string(buf[off+2 : off+2+l])}
}
