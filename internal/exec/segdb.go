package exec

import (
	"fmt"
	"sync"

	"repro/internal/colstore"
	"repro/internal/segstore"
	"repro/internal/ssb"
)

// segTableNames maps each dimension to its stored table name. These match
// the names BuildDB gives the in-memory tables, so a file written from a
// built DB (SaveSegments) opens back into the same physical schema.
var segTableNames = map[ssb.Dim]string{
	ssb.DimCustomer: "customer",
	ssb.DimSupplier: "supplier",
	ssb.DimPart:     "part",
	ssb.DimDate:     "dwdate",
}

// segFactName is the stored fact table name.
const segFactName = "lineorder"

// SaveSegments persists db's physical tables (fact plus all four
// dimensions) to a segment-store file at path. The DB must be a compressed
// build — the segment format exists to ship the compressed physical design,
// and forcing plain storage through it would just inflate the file.
func SaveSegments(path string, sf float64, db *DB) error {
	if !db.Compressed {
		return fmt.Errorf("exec: segment files store the compressed physical design; build the DB with compression")
	}
	tables := []*colstore.Table{db.Fact}
	for _, dim := range []ssb.Dim{ssb.DimCustomer, ssb.DimSupplier, ssb.DimPart, ssb.DimDate} {
		tables = append(tables, db.Dims[dim])
	}
	return segstore.Save(path, sf, tables)
}

// OpenSegmentDB opens a column-store DB over a segment file: every column
// is backed by the store's buffer pool, so executors fault 64K-row
// compressed segments in on demand (and zone-map pruning keeps skipped
// segments off disk entirely) instead of holding whole columns. The date
// join index is the only eagerly decoded column — the date dimension is a
// few thousand rows. Rows the footer's checkpoint marks deleted stay
// invisible to every query.
func OpenSegmentDB(store *segstore.Store) (*DB, error) {
	db := &DB{
		Compressed: true,
		Dims:       map[ssb.Dim]*colstore.Table{},
		fusedPool:  &sync.Pool{},
		seg:        store,
	}
	fact, err := store.Table(segFactName)
	if err != nil {
		return nil, err
	}
	db.Fact = fact
	db.numRows = fact.NumRows()
	if db.ckpt, err = store.Checkpoint(segFactName); err != nil {
		return nil, err
	}
	for dim, name := range segTableNames {
		t, err := store.Table(name)
		if err != nil {
			return nil, err
		}
		db.Dims[dim] = t
	}
	dateKeys, err := db.Dims[ssb.DimDate].Column("datekey")
	if err != nil {
		return nil, err
	}
	db.buildDateIndex(dateKeys.DecodeAll(nil, nil))
	return db, nil
}
