package rowstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/iosim"
)

func testSchema() *Schema {
	return NewSchema(
		[]string{"id", "qty", "name", "city"},
		[]ColType{TInt, TInt, TStr, TStr},
	)
}

func mkRow(id, qty int32, name, city string) Row {
	return Row{{I: id}, {I: qty}, {S: name}, {S: city}}
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.NumCols() != 4 {
		t.Fatal("NumCols")
	}
	if i, err := s.ColIndex("qty"); err != nil || i != 1 {
		t.Fatalf("ColIndex qty = %d, %v", i, err)
	}
	if _, err := s.ColIndex("zz"); err == nil {
		t.Fatal("missing column should error")
	}
	p := s.Project([]string{"city", "id"})
	if p.NumCols() != 2 || p.Types[0] != TStr || p.Types[1] != TInt {
		t.Fatal("Project wrong")
	}
}

func TestSchemaPanicsOnBadConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { NewSchema([]string{"a"}, nil) },
		"duplicate":       func() { NewSchema([]string{"a", "a"}, []ColType{TInt, TInt}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	rows := []Row{
		mkRow(1, 10, "alpha", "boston"),
		mkRow(-5, 0, "", "x"),
		mkRow(1<<30, -1, "long name with spaces", ""),
	}
	for _, r := range rows {
		buf := s.Encode(r, nil)
		if len(buf) != s.EncodedSize(r) {
			t.Fatalf("EncodedSize=%d actual=%d", s.EncodedSize(r), len(buf))
		}
		got := make(Row, s.NumCols())
		n := s.DecodeInto(buf, got)
		if n != len(buf) {
			t.Fatalf("DecodeInto consumed %d of %d", n, len(buf))
		}
		for i := range r {
			if got[i] != r[i] {
				t.Fatalf("field %d: got %+v want %+v", i, got[i], r[i])
			}
		}
		// Single-column decode agrees.
		for i := range r {
			if v := s.DecodeCol(buf, i); v != r[i] {
				t.Fatalf("DecodeCol(%d): got %+v want %+v", i, v, r[i])
			}
		}
	}
}

func TestTableAppendScanFetch(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	const n = 10000
	for i := 0; i < n; i++ {
		rid := tb.Append(mkRow(int32(i), int32(i%7), fmt.Sprintf("name%d", i), "c"))
		if rid != int32(i) {
			t.Fatalf("rid=%d want %d", rid, i)
		}
	}
	if tb.NumRows() != n {
		t.Fatal("NumRows")
	}
	if tb.NumPages() < 2 {
		t.Fatal("expected multiple pages")
	}
	var st iosim.Stats
	count := 0
	tb.Scan(&st, func(rid int32, row Row) bool {
		if row[0].I != rid {
			t.Fatalf("scan rid %d has id %d", rid, row[0].I)
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d", count)
	}
	if st.BytesRead != tb.HeapBytes() {
		t.Fatalf("scan charged %d, heap is %d", st.BytesRead, tb.HeapBytes())
	}
	// Random fetches.
	for _, rid := range []int32{0, 1, 4999, 9999} {
		st.Reset()
		row := tb.Fetch(rid, &st)
		if row[0].I != rid {
			t.Fatalf("Fetch(%d) got id %d", rid, row[0].I)
		}
		if st.Seeks != 1 || st.BytesRead != PageSize {
			t.Fatalf("Fetch accounting: %+v", st)
		}
	}
	// Early termination.
	count = 0
	tb.Scan(nil, func(int32, Row) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestTupleOverheadVisible(t *testing.T) {
	// A 2-column int table spends TupleHeaderBytes+8 per tuple: the
	// vertical-partitioning overhead the paper measures (~16 bytes/value
	// vs 4 in a column store).
	s := NewSchema([]string{"pos", "v"}, []ColType{TInt, TInt})
	tb := NewTable("vp", s)
	for i := 0; i < 1000; i++ {
		tb.Append(Row{{I: int32(i)}, {I: int32(i)}})
	}
	perTuple := float64(tb.DataBytes()) / 1000
	if perTuple != TupleHeaderBytes+8 {
		t.Fatalf("per-tuple bytes = %v, want %d", perTuple, TupleHeaderBytes+8)
	}
}

func TestBuildVertical(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	for i := 0; i < 500; i++ {
		tb.Append(mkRow(int32(i), int32(i*2), fmt.Sprintf("n%d", i), "city"))
	}
	vp := BuildVertical(tb)
	if len(vp) != 4 {
		t.Fatalf("got %d vertical tables", len(vp))
	}
	qty := vp["qty"]
	if qty.NumRows() != 500 {
		t.Fatal("vertical rows")
	}
	// Each row is (pos, value) and positions align with source rids.
	qty.Scan(nil, func(_ int32, row Row) bool {
		if row[1].I != row[0].I*2 {
			t.Fatalf("vertical mismatch: pos=%d val=%d", row[0].I, row[1].I)
		}
		return true
	})
	// The string column's vertical table holds strings.
	name := vp["name"]
	name.Scan(nil, func(_ int32, row Row) bool {
		if row[1].S == "" {
			t.Fatal("vertical string column empty")
		}
		return true
	})
}

func TestBuildMV(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	for i := 0; i < 5000; i++ {
		tb.Append(mkRow(int32(i), int32(i%5), "nm", "ct"))
	}
	mv := BuildMV(tb, "mv1", []string{"qty", "id"})
	if mv.NumRows() != 5000 || mv.Schema.NumCols() != 2 {
		t.Fatal("MV shape wrong")
	}
	mv.Scan(nil, func(_ int32, row Row) bool {
		if row[0].I != row[1].I%5 {
			t.Fatalf("MV row mismatch: %+v", row)
		}
		return true
	})
	if mv.HeapBytes() >= tb.HeapBytes() {
		t.Fatalf("MV (%d) not smaller than base (%d)", mv.HeapBytes(), tb.HeapBytes())
	}
}

func TestIntIndex(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	rng := rand.New(rand.NewSource(4))
	vals := make([]int32, 5000)
	for i := range vals {
		vals[i] = rng.Int31n(100)
		tb.Append(mkRow(int32(i), vals[i], "x", "y"))
	}
	ix := BuildIntIndex(tb, "qty", "id")
	// Range query matches naive filter.
	var st iosim.Stats
	got := map[int32]bool{}
	ix.Range(10, 20, &st, func(key, rid, aux int32) bool {
		if key < 10 || key > 20 {
			t.Fatalf("range leaked key %d", key)
		}
		if aux != rid {
			t.Fatalf("aux=%d rid=%d: composite payload should be id column", aux, rid)
		}
		got[rid] = true
		return true
	})
	want := 0
	for _, v := range vals {
		if v >= 10 && v <= 20 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("index range matched %d want %d", len(got), want)
	}
	if st.Seeks == 0 || st.BytesRead == 0 {
		t.Fatalf("index range charged nothing: %+v", st)
	}
	// Full scan visits everything in key order.
	st.Reset()
	prev := int32(-1)
	n := 0
	ix.ScanAll(&st, func(key, rid, aux int32) bool {
		if key < prev {
			t.Fatal("ScanAll out of order")
		}
		prev = key
		n++
		return true
	})
	if n != 5000 {
		t.Fatalf("ScanAll visited %d", n)
	}
	if st.BytesRead != ix.Tree.SizeBytes() {
		t.Fatalf("ScanAll charged %d want %d", st.BytesRead, ix.Tree.SizeBytes())
	}
}

func TestStrIndex(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for i := 0; i < 1000; i++ {
		tb.Append(mkRow(int32(i), 0, "x", regions[i%5]))
	}
	ix := BuildStrIndex(tb, "city", "id")
	count := 0
	ix.Range("ASIA", "ASIA", nil, func(key string, rid, aux int32) bool {
		if key != "ASIA" {
			t.Fatalf("leaked key %q", key)
		}
		count++
		return true
	})
	if count != 200 {
		t.Fatalf("ASIA matched %d want 200", count)
	}
}

func TestBitmapIndex(t *testing.T) {
	s := testSchema()
	tb := NewTable("t", s)
	for i := 0; i < 2000; i++ {
		tb.Append(mkRow(int32(i), int32(i%11), "x", "y"))
	}
	ix := BuildBitmapIndex(tb, "qty")
	if len(ix.ByValue) != 11 {
		t.Fatalf("distinct values = %d", len(ix.ByValue))
	}
	var st iosim.Stats
	bm := ix.Lookup(func(v int32) bool { return v >= 1 && v <= 3 }, &st)
	want := 0
	for i := 0; i < 2000; i++ {
		if m := i % 11; m >= 1 && m <= 3 {
			want++
		}
	}
	if bm.Count() != want {
		t.Fatalf("bitmap lookup matched %d want %d", bm.Count(), want)
	}
	if st.BytesRead == 0 || ix.SizeBytes() == 0 {
		t.Fatal("bitmap accounting missing")
	}
}

// TestQuickEncodeDecode round-trips random rows through the tuple format.
func TestQuickEncodeDecode(t *testing.T) {
	s := testSchema()
	f := func(id, qty int32, name, city string) bool {
		if len(name) > 60000 {
			name = name[:60000]
		}
		if len(city) > 60000 {
			city = city[:60000]
		}
		r := mkRow(id, qty, name, city)
		buf := s.Encode(r, nil)
		got := make(Row, 4)
		s.DecodeInto(buf, got)
		for i := range r {
			if got[i] != r[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFetchMatchesScan: Fetch(rid) must agree with the rid seen during
// Scan for random table sizes.
func TestQuickFetchMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := testSchema()
		tb := NewTable("t", s)
		n := rng.Intn(3000) + 1
		for i := 0; i < n; i++ {
			tb.Append(mkRow(int32(i), rng.Int31n(100), "abcdefg", "hijk"))
		}
		for k := 0; k < 20; k++ {
			rid := int32(rng.Intn(n))
			row := tb.Fetch(rid, nil)
			if row[0].I != rid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
