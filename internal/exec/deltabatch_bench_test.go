package exec

import (
	"fmt"
	"testing"

	"repro/internal/ssb"
)

// BenchmarkDeltaBatchSizes times the serving engine (FusedOpt) over a sealed
// store plus a 20 000-row live delta that arrived as batches of 1000, 10 or
// 1 rows: the delta scan's cost must follow the rows scanned, not the number
// of insert batches they arrived in (PERFORMANCE.md, "Delta scan vs insert
// batch size").
func BenchmarkDeltaBatchSizes(b *testing.B) {
	const deltaRows = 20000
	for _, batchRows := range []int{1000, 10, 1} {
		db := BuildDB(ssb.Generate(0.01), true)
		if err := db.EnableDelta(0); err != nil {
			b.Fatal(err)
		}
		shape, err := db.BatchShape()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < deltaRows/batchRows; i++ {
			batch, err := ssb.RandBatch(int64(i), batchRows, shape)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Insert(batch); err != nil {
				b.Fatal(err)
			}
		}
		for _, id := range []string{"1.1", "2.1", "3.1", "4.1"} {
			q := ssb.QueryByID(id)
			b.Run(fmt.Sprintf("batch%d/Q%s", batchRows, id), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db.Run(q, FusedOpt, nil)
				}
			})
		}
		db.CloseDelta()
	}
}
