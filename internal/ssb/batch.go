package ssb

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file supports the write path: seeded generation of additional fact
// batches against an existing dataset's dimension space, and appending those
// batches to a Data instance so the brute-force reference can be rebuilt
// from scratch for any insert history.

// BatchShape describes the dimension space inserted rows must reference:
// the dense key ranges of the three position-keyed dimensions, the valid
// datekeys, and the dictionary vocabularies of the two string fact
// attributes (insert batches may only use values the frozen dictionaries
// already contain).
type BatchShape struct {
	Customers, Suppliers, Parts int
	DateKeys                    []int32
	OrdPriorities               []string
	ShipModes                   []string
}

// Validate reports whether the shape can generate rows at all.
func (sh BatchShape) Validate() error {
	if sh.Customers < 1 || sh.Suppliers < 1 || sh.Parts < 1 {
		return fmt.Errorf("ssb: batch shape needs at least one customer/supplier/part")
	}
	if len(sh.DateKeys) == 0 {
		return fmt.Errorf("ssb: batch shape has no datekeys")
	}
	if len(sh.OrdPriorities) == 0 || len(sh.ShipModes) == 0 {
		return fmt.Errorf("ssb: batch shape has empty string vocabularies")
	}
	return nil
}

// Shape returns the batch shape of a generated dataset.
func (d *Data) Shape() BatchShape {
	return BatchShape{
		Customers:     len(d.Customer.Key),
		Suppliers:     len(d.Supplier.Key),
		Parts:         len(d.Part.Key),
		DateKeys:      d.Date.Key,
		OrdPriorities: ordPriorities,
		ShipModes:     shipModes,
	}
}

// RandBatch generates rows additional fact rows, deterministic in seed,
// drawn from the same distributions as the base generator: orders of 1–7
// line items sharing a customer, order date and priority, with measures in
// the generator's value domains. Rows arrive in insertion order (not sorted
// by orderdate — live writes are what breaks the frozen sort order).
func RandBatch(seed int64, rows int, sh BatchShape) (*Lineorders, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	if rows < 1 {
		return nil, fmt.Errorf("ssb: batch needs at least one row (got %d)", rows)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ead5eed))
	lo := &Lineorders{}
	// Order keys continue far above any generated base key space; they are
	// payload (no query references them), so collisions across seeds are
	// harmless.
	orderKey := int32(1_000_000_000 - rng.Int31n(400_000_000))
	nDate := int32(len(sh.DateKeys))
	for len(lo.OrderKey) < rows {
		lines := rng.Intn(maxLinesPerOrd) + 1
		if rem := rows - len(lo.OrderKey); lines > rem {
			lines = rem
		}
		custKey := rng.Int31n(int32(sh.Customers)) + 1
		dateIdx := rng.Int31n(nDate)
		orderDate := sh.DateKeys[dateIdx]
		prio := sh.OrdPriorities[rng.Intn(len(sh.OrdPriorities))]
		var ordTotal int32
		base := len(lo.OrderKey)
		for l := 1; l <= lines; l++ {
			ext := rng.Int31n(99000) + 1000
			disc := rng.Int31n(11)
			qty := rng.Int31n(50) + 1
			commitIdx := dateIdx + rng.Int31n(90) + 1
			if commitIdx >= nDate {
				commitIdx = nDate - 1
			}
			lo.OrderKey = append(lo.OrderKey, orderKey)
			lo.LineNumber = append(lo.LineNumber, int32(l))
			lo.CustKey = append(lo.CustKey, custKey)
			lo.PartKey = append(lo.PartKey, rng.Int31n(int32(sh.Parts))+1)
			lo.SuppKey = append(lo.SuppKey, rng.Int31n(int32(sh.Suppliers))+1)
			lo.OrderDate = append(lo.OrderDate, orderDate)
			lo.OrdPriority = append(lo.OrdPriority, prio)
			lo.ShipPriority = append(lo.ShipPriority, 0)
			lo.Quantity = append(lo.Quantity, qty)
			lo.ExtendedPrice = append(lo.ExtendedPrice, ext)
			lo.Discount = append(lo.Discount, disc)
			lo.Revenue = append(lo.Revenue, ext*(100-disc)/100)
			lo.SupplyCost = append(lo.SupplyCost, ext*6/10)
			lo.Tax = append(lo.Tax, rng.Int31n(9))
			lo.CommitDate = append(lo.CommitDate, sh.DateKeys[commitIdx])
			lo.ShipMode = append(lo.ShipMode, sh.ShipModes[rng.Intn(len(sh.ShipModes))])
			ordTotal += ext
		}
		for i := base; i < len(lo.OrderKey); i++ {
			lo.OrdTotalPrice = append(lo.OrdTotalPrice, ordTotal)
		}
		orderKey++
	}
	return lo, nil
}

// Len returns the row count (the length of every column; CheckLens verifies
// the invariant for externally assembled batches).
func (lo *Lineorders) Len() int { return len(lo.OrderKey) }

// CheckLens verifies that every column of the batch has the same length.
func (lo *Lineorders) CheckLens() error {
	n := lo.Len()
	for _, c := range FactCols {
		if l := c.Len(lo); l != n {
			return fmt.Errorf("ssb: batch column %s has %d rows, orderkey has %d", c.Name, l, n)
		}
	}
	return nil
}

// AppendBatch appends a batch's rows to the fact table in arrival order.
// The reference evaluator brute-forces over the raw arrays with no sort
// assumptions, so an appended Data is the from-scratch oracle for any
// engine serving the same insert history.
func (d *Data) AppendBatch(b *Lineorders) {
	for _, c := range FactCols {
		if c.IsInt() {
			*c.Int(&d.Line) = append(*c.Int(&d.Line), *c.Int(b)...)
		} else {
			*c.Str(&d.Line) = append(*c.Str(&d.Line), *c.Str(b)...)
		}
	}
}

// DeleteWhere removes every fact row matching ALL of the given measure
// predicates (the same conjunction semantics as the engine's Delete) and
// returns how many were removed. It is the brute-force oracle for the
// deletion-vector path: a Data that replayed the same insert+delete history
// through AppendBatch/DeleteWhere is the from-scratch reference any engine
// snapshot must agree with.
func (d *Data) DeleteWhere(filters []FactFilter) int64 {
	lo := &d.Line
	n := lo.Len()
	cols := make([][]int32, len(filters))
	for i, f := range filters {
		cols[i] = lo.MustIntCol(f.Col)
	}
	keep := make([]bool, n)
	var removed int64
	for i := 0; i < n; i++ {
		keep[i] = false
		for fi := range filters {
			if !filters[fi].Pred.Match(cols[fi][i]) {
				keep[i] = true
				break
			}
		}
		if !keep[i] {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	for _, c := range FactCols {
		if c.IsInt() {
			*c.Int(lo) = keepRows(*c.Int(lo), keep)
		} else {
			*c.Str(lo) = keepRows(*c.Str(lo), keep)
		}
	}
	return removed
}

// SortLineorders re-sorts the fact table into the generator's physical
// order (orderdate primary, quantity and discount secondary). A Data that
// absorbed AppendBatch rows is logically complete but physically unsorted;
// BuildDB requires the physical sort (it marks orderdate as the primary
// sort key), so rebuild-from-scratch paths sort first. Query results are
// unaffected — the reference evaluator is order-independent.
func (d *Data) SortLineorders() {
	lo := &d.Line
	n := lo.Len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if lo.OrderDate[i] != lo.OrderDate[j] {
			return lo.OrderDate[i] < lo.OrderDate[j]
		}
		if lo.Quantity[i] != lo.Quantity[j] {
			return lo.Quantity[i] < lo.Quantity[j]
		}
		return lo.Discount[i] < lo.Discount[j]
	})
	for _, c := range FactCols {
		if c.IsInt() {
			*c.Int(lo) = Permute(*c.Int(lo), perm)
		} else {
			*c.Str(lo) = Permute(*c.Str(lo), perm)
		}
	}
}
