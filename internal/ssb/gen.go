package ssb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Customers holds the CUSTOMER dimension column-wise.
type Customers struct {
	Key        []int32
	Name       []string
	Address    []string
	City       []string
	Nation     []string
	Region     []string
	Phone      []string
	MktSegment []string
}

// Suppliers holds the SUPPLIER dimension column-wise.
type Suppliers struct {
	Key     []int32
	Name    []string
	Address []string
	City    []string
	Nation  []string
	Region  []string
	Phone   []string
}

// Parts holds the PART dimension column-wise.
type Parts struct {
	Key       []int32
	Name      []string
	MFGR      []string
	Category  []string
	Brand1    []string
	Color     []string
	Type      []string
	Size      []int32
	Container []string
}

// Dates holds the DATE dimension column-wise, one row per calendar day of
// 1992-01-01 .. 1998-12-31.
type Dates struct {
	Key           []int32 // yyyymmdd
	Date          []string
	DayOfWeek     []string
	Month         []string
	Year          []int32
	YearMonthNum  []int32 // yyyymm
	YearMonth     []string
	DayNumInWeek  []int32
	DayNumInMonth []int32
	DayNumInYear  []int32
	MonthNumInYr  []int32
	WeekNumInYear []int32
	SellingSeason []string
}

// Lineorders holds the LINEORDER fact table column-wise (17 attributes, as
// in paper Figure 1).
type Lineorders struct {
	OrderKey      []int32
	LineNumber    []int32
	CustKey       []int32
	PartKey       []int32
	SuppKey       []int32
	OrderDate     []int32 // yyyymmdd, FK to Dates.Key
	OrdPriority   []string
	ShipPriority  []int32
	Quantity      []int32 // 1..50
	ExtendedPrice []int32
	OrdTotalPrice []int32
	Discount      []int32 // 0..10
	Revenue       []int32
	SupplyCost    []int32
	Tax           []int32
	CommitDate    []int32
	ShipMode      []string
}

// Data is one generated SSBM instance. The fact table is sorted by
// (orderdate, quantity, discount), matching the paper's C-Store physical
// design: "only one of the seventeen columns in the fact table can be sorted
// (and two others secondarily sorted)".
type Data struct {
	SF       float64
	Customer Customers
	Supplier Suppliers
	Part     Parts
	Date     Dates
	Line     Lineorders
}

// Cardinality constants from paper Figure 1.
const (
	customersPerSF = 30000
	suppliersPerSF = 2000
	ordersPerSF    = 1500000 // x avg 4 lines = 6,000,000 lineorders
	maxLinesPerOrd = 7
)

// PartCount returns the PART cardinality for a scale factor: the paper's
// 200,000 x (1 + log2 sf) for sf >= 1. SSB defines only integer sf >= 1; for
// the fractional factors used in tests we scale linearly with a floor that
// keeps all 1000 (category, brand) combinations populated.
func PartCount(sf float64) int {
	if sf >= 1 {
		return int(200000 * (1 + math.Log2(sf)))
	}
	n := int(200000 * sf)
	if n < 4000 {
		n = 4000
	}
	return n
}

// scaled returns max(1, round(n*sf)).
func scaled(n int, sf float64) int {
	v := int(math.Round(float64(n) * sf))
	if v < 1 {
		v = 1
	}
	return v
}

var (
	mktSegments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	ordPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	shipModes     = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	colors        = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush"}
	types         = []string{"ECONOMY ANODIZED", "LARGE BRUSHED", "MEDIUM POLISHED", "PROMO BURNISHED", "SMALL PLATED", "STANDARD BURNISHED"}
	containers    = []string{"JUMBO BAG", "LG BOX", "MED CASE", "SM PKG", "WRAP DRUM"}
	seasons       = []string{"Winter", "Spring", "Summer", "Fall", "Christmas"}
)

// Generate builds a deterministic SSBM instance at the given scale factor.
// The same (sf) always yields identical data.
func Generate(sf float64) *Data {
	rng := rand.New(rand.NewSource(int64(sf*1e6) + 42))
	d := &Data{SF: sf}
	d.genDates()
	d.genCustomers(rng, scaled(customersPerSF, sf))
	d.genSuppliers(rng, scaled(suppliersPerSF, sf))
	d.genParts(rng, PartCount(sf))
	d.genLineorders(rng, scaled(ordersPerSF, sf))
	return d
}

func (d *Data) genDates() {
	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC)
	dd := &d.Date
	for t := start; !t.After(end); t = t.AddDate(0, 0, 1) {
		key := int32(t.Year()*10000 + int(t.Month())*100 + t.Day())
		dd.Key = append(dd.Key, key)
		dd.Date = append(dd.Date, t.Format("January 2, 2006"))
		dd.DayOfWeek = append(dd.DayOfWeek, t.Weekday().String())
		dd.Month = append(dd.Month, t.Month().String())
		dd.Year = append(dd.Year, int32(t.Year()))
		dd.YearMonthNum = append(dd.YearMonthNum, int32(t.Year()*100+int(t.Month())))
		dd.YearMonth = append(dd.YearMonth, t.Format("Jan2006"))
		dd.DayNumInWeek = append(dd.DayNumInWeek, int32(t.Weekday())+1)
		dd.DayNumInMonth = append(dd.DayNumInMonth, int32(t.Day()))
		dd.DayNumInYear = append(dd.DayNumInYear, int32(t.YearDay()))
		dd.MonthNumInYr = append(dd.MonthNumInYr, int32(t.Month()))
		_, week := t.ISOWeek()
		dd.WeekNumInYear = append(dd.WeekNumInYear, int32(week))
		dd.SellingSeason = append(dd.SellingSeason, seasons[(int(t.Month())-1)/3])
	}
}

// NumDates returns the DATE cardinality (2557 days: 7 years, two leap).
func (d *Data) NumDates() int { return len(d.Date.Key) }

func (d *Data) genCustomers(rng *rand.Rand, n int) {
	c := &d.Customer
	for i := 1; i <= n; i++ {
		nation := Nations[rng.Intn(len(Nations))]
		c.Key = append(c.Key, int32(i))
		c.Name = append(c.Name, fmt.Sprintf("Customer#%09d", i))
		c.Address = append(c.Address, randAddress(rng))
		c.City = append(c.City, CityOf(nation, rng.Intn(10)))
		c.Nation = append(c.Nation, nation)
		c.Region = append(c.Region, NationRegion[nation])
		c.Phone = append(c.Phone, randPhone(rng))
		c.MktSegment = append(c.MktSegment, mktSegments[rng.Intn(len(mktSegments))])
	}
}

func (d *Data) genSuppliers(rng *rand.Rand, n int) {
	s := &d.Supplier
	for i := 1; i <= n; i++ {
		nation := Nations[rng.Intn(len(Nations))]
		s.Key = append(s.Key, int32(i))
		s.Name = append(s.Name, fmt.Sprintf("Supplier#%09d", i))
		s.Address = append(s.Address, randAddress(rng))
		s.City = append(s.City, CityOf(nation, rng.Intn(10)))
		s.Nation = append(s.Nation, nation)
		s.Region = append(s.Region, NationRegion[nation])
		s.Phone = append(s.Phone, randPhone(rng))
	}
}

func (d *Data) genParts(rng *rand.Rand, n int) {
	p := &d.Part
	for i := 1; i <= n; i++ {
		m := rng.Intn(5) + 1
		c := rng.Intn(5) + 1
		b := rng.Intn(40) + 1
		p.Key = append(p.Key, int32(i))
		p.Name = append(p.Name, colors[rng.Intn(len(colors))]+" "+colors[rng.Intn(len(colors))])
		p.MFGR = append(p.MFGR, MfgrOf(m))
		p.Category = append(p.Category, CategoryOf(m, c))
		p.Brand1 = append(p.Brand1, Brand1Of(m, c, b))
		p.Color = append(p.Color, colors[rng.Intn(len(colors))])
		p.Type = append(p.Type, types[rng.Intn(len(types))])
		p.Size = append(p.Size, rng.Int31n(50)+1)
		p.Container = append(p.Container, containers[rng.Intn(len(containers))])
	}
}

func (d *Data) genLineorders(rng *rand.Rand, orders int) {
	lo := &d.Line
	nCust := int32(len(d.Customer.Key))
	nSupp := int32(len(d.Supplier.Key))
	nPart := int32(len(d.Part.Key))
	nDate := int32(len(d.Date.Key))
	type rec struct {
		orderKey, lineNum, custKey, partKey, suppKey int32
		orderDate, quantity, extPrice, ordTotal      int32
		discount, supplyCost, tax, commitDate        int32
		ordPriority, shipMode                        uint8
	}
	var recs []rec
	for o := 1; o <= orders; o++ {
		lines := rng.Intn(maxLinesPerOrd) + 1
		custKey := rng.Int31n(nCust) + 1
		dateIdx := rng.Int31n(nDate)
		orderDate := d.Date.Key[dateIdx]
		prio := uint8(rng.Intn(len(ordPriorities)))
		var ordTotal int32
		base := len(recs)
		for l := 1; l <= lines; l++ {
			ext := rng.Int31n(99000) + 1000 // 1000..99999 (price in cents)
			disc := rng.Int31n(11)          // 0..10 percent
			qty := rng.Int31n(50) + 1       // 1..50
			commitIdx := dateIdx + rng.Int31n(90) + 1
			if commitIdx >= nDate {
				commitIdx = nDate - 1
			}
			recs = append(recs, rec{
				orderKey:    int32(o),
				lineNum:     int32(l),
				custKey:     custKey,
				partKey:     rng.Int31n(nPart) + 1,
				suppKey:     rng.Int31n(nSupp) + 1,
				orderDate:   orderDate,
				quantity:    qty,
				extPrice:    ext,
				discount:    disc,
				supplyCost:  ext * 6 / 10,
				tax:         rng.Int31n(9),
				commitDate:  d.Date.Key[commitIdx],
				ordPriority: prio,
				shipMode:    uint8(rng.Intn(len(shipModes))),
			})
			ordTotal += ext
		}
		for i := base; i < len(recs); i++ {
			recs[i].ordTotal = ordTotal
		}
	}
	// Physical sort order of the C-Store projection: orderdate primary,
	// quantity and discount secondary (paper Section 6.3.2).
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.orderDate != b.orderDate {
			return a.orderDate < b.orderDate
		}
		if a.quantity != b.quantity {
			return a.quantity < b.quantity
		}
		return a.discount < b.discount
	})
	n := len(recs)
	for _, c := range FactCols {
		if c.IsInt() {
			*c.Int(lo) = make([]int32, n)
		} else {
			*c.Str(lo) = make([]string, n)
		}
	}
	for i, r := range recs {
		lo.OrderKey[i] = r.orderKey
		lo.LineNumber[i] = r.lineNum
		lo.CustKey[i] = r.custKey
		lo.PartKey[i] = r.partKey
		lo.SuppKey[i] = r.suppKey
		lo.OrderDate[i] = r.orderDate
		lo.OrdPriority[i] = ordPriorities[r.ordPriority]
		lo.ShipPriority[i] = 0
		lo.Quantity[i] = r.quantity
		lo.ExtendedPrice[i] = r.extPrice
		lo.OrdTotalPrice[i] = r.ordTotal
		lo.Discount[i] = r.discount
		lo.Revenue[i] = r.extPrice * (100 - r.discount) / 100
		lo.SupplyCost[i] = r.supplyCost
		lo.Tax[i] = r.tax
		lo.CommitDate[i] = r.commitDate
		lo.ShipMode[i] = shipModes[r.shipMode]
	}
}

// NumLineorders returns the fact cardinality.
func (d *Data) NumLineorders() int { return len(d.Line.OrderKey) }

func randAddress(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz "
	n := rng.Intn(15) + 10
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func randPhone(rng *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", rng.Intn(25)+10, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
}
