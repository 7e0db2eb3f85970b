package segstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// Write serializes tables to w in segment-store format. Table and column
// order is preserved; each column's blocks are written in their existing
// encodings (the per-segment scheme compress.Choose picked when the column
// was built), each with a zone-map footer entry.
func Write(w io.Writer, sf float64, tables []*colstore.Table) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(sf)); err != nil {
		return err
	}
	off := uint64(headerLen)

	var metas []*tableMeta
	var payload []byte
	for _, t := range tables {
		tm := &tableMeta{name: t.Name}
		for _, colName := range t.ColumnNames() {
			col := t.MustColumn(colName)
			cm := &colMeta{table: t.Name, name: colName, sort: col.Sorted, dict: col.Dict}
			for bi := 0; bi < col.NumBlocks(); bi++ {
				blk, release := col.AcquireBlock(bi)
				payload = compress.AppendBlock(blk, payload[:0])
				mn, mx := blk.MinMax()
				cm.segs = append(cm.segs, segMeta{
					off:    off,
					plen:   uint64(len(payload)),
					cbytes: uint64(blk.CompressedBytes()),
					enc:    blk.Encoding(),
					rows:   uint32(blk.Len()),
					min:    mn,
					max:    mx,
					crc:    crc32.ChecksumIEEE(payload),
				})
				release()
				if _, err := bw.Write(payload); err != nil {
					return err
				}
				off += uint64(len(payload))
			}
			tm.cols = append(tm.cols, cm)
		}
		metas = append(metas, tm)
	}

	footer, _ := encodeFooter(metas)
	if _, err := bw.Write(footer); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(footer)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(footer))); err != nil {
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	return bw.Flush()
}

// Save writes the tables to path atomically and durably: a temp file,
// fsynced, renamed over path, then the directory fsynced so the rename
// survives a crash. Every step's error is returned; a save that fails
// before its rename removes the temp file.
func Save(path string, sf float64, tables []*colstore.Table) error {
	return save(path, sf, tables, syncDir)
}

// save is Save with the directory fsync passed in, so a test can make it
// fail.
func save(path string, sf float64, tables []*colstore.Table, syncDir func(dir string) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = Write(f, sf, tables)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("segstore: %s: syncing the directory after the rename: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, which makes a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
