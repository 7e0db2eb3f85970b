package delta

import (
	"sync"
	"testing"
)

func mkBatch(t *testing.T, vals ...int32) *Batch {
	t.Helper()
	b, err := NewBatch([]Column{{Name: "x", Vals: vals}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchZoneMap(t *testing.T) {
	b := mkBatch(t, 5, -3, 12, 7)
	mn, mx, ok := b.MinMax("x")
	if !ok || mn != -3 || mx != 12 {
		t.Fatalf("MinMax = %d,%d,%v want -3,12,true", mn, mx, ok)
	}
	if _, _, ok := b.MinMax("nope"); ok {
		t.Fatal("MinMax on a missing column reported ok")
	}
	if b.Bytes() != 16 {
		t.Fatalf("Bytes = %d want 16", b.Bytes())
	}
	if _, err := NewBatch([]Column{{Name: "a", Vals: []int32{1}}, {Name: "b", Vals: []int32{1, 2}}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := NewBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestSealRetainsSnapshots pins the WS invariant the snapshot design rests
// on: sealing drops batches from the store, but a view taken earlier keeps
// reading the exact rows it covered.
func TestSealRetainsSnapshots(t *testing.T) {
	s := NewStore()
	s.Append(mkBatch(t, 1, 2, 3))
	s.Append(mkBatch(t, 4, 5))
	view := s.Snapshot()
	if view.Len() != 5 {
		t.Fatalf("view len %d want 5", view.Len())
	}

	s.Seal(4) // into the second insert's rows (the two small inserts coalesced into one batch)
	if got := s.Pending(); got != 1 {
		t.Fatalf("pending %d want 1", got)
	}
	late := s.Snapshot()
	if late.Len() != 1 {
		t.Fatalf("late view len %d want 1", late.Len())
	}
	if got := late.Gather("x", 1, nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("late view rows = %v want [5]", got)
	}
	// The early view still covers all five rows.
	if got := view.Gather("x", 5, nil); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("early view rows = %v want [1 2 3 4 5]", got)
	}
	s.Seal(1)
	if s.Pending() != 0 || s.Bytes() != 0 {
		t.Fatalf("drained store pending=%d bytes=%d, want 0/0", s.Pending(), s.Bytes())
	}
	if s.Total() != 5 || s.Sealed() != 5 {
		t.Fatalf("total/sealed = %d/%d want 5/5", s.Total(), s.Sealed())
	}
}

func TestViewForEachRanges(t *testing.T) {
	s := NewStore()
	s.Append(mkBatch(t, 0, 1, 2))
	s.Seal(2)
	s.Append(mkBatch(t, 3, 4))
	v := s.Snapshot()
	var got []int32
	v.ForEach(func(b *Batch, lo, hi int) bool {
		got = append(got, b.Col("x")[lo:hi]...)
		return true
	})
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("visible rows = %v want [2 3 4]", got)
	}
	if v.Bytes() == 0 {
		t.Fatal("view over live batches reports zero bytes")
	}
}

// TestStoreConcurrency exercises append/snapshot/seal races under -race.
func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Append(mkBatch(t, int32(i), int32(i+1)))
				v := s.Snapshot()
				v.ForEach(func(b *Batch, lo, hi int) bool { return hi > lo })
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if s.Sealed() >= 1600 {
				return
			}
			if p := s.Pending(); p > 0 {
				s.Seal(1)
			}
		}
	}()
	wg.Wait()
	<-done // the sealer alone drains the rest: a second sealer here would race it past the total
	if s.Total() != 1600 || s.Pending() != 0 {
		t.Fatalf("total=%d pending=%d, want 1600/0", s.Total(), s.Pending())
	}
}

// TestAppendCoalesces pins write-time coalescing: runs of small inserts grow
// into batches of at least CoalesceRows rows (so a reader's per-batch cost
// follows rows, not inserts), large inserts stay apart, zone maps and byte
// accounting follow the merged batch, and a view taken before a merge keeps
// reading exactly the rows it covered.
func TestAppendCoalesces(t *testing.T) {
	s := NewStore()
	batches := func(v *View) (n int) {
		v.ForEach(func(*Batch, int, int) bool { n++; return true })
		return n
	}
	var views []*View
	const small = CoalesceRows + 44
	for i := 0; i < small; i++ {
		s.Append(mkBatch(t, int32(i)))
		views = append(views, s.Snapshot())
	}
	for i, v := range views {
		got := v.Gather("x", v.Len(), nil)
		if len(got) != i+1 || got[0] != 0 || got[i] != int32(i) {
			t.Fatalf("view after insert %d reads %d rows ending %d", i, len(got), got[len(got)-1])
		}
	}
	if n := batches(s.Snapshot()); n != 2 {
		t.Fatalf("%d one-row inserts left %d batches, want 2 (%d rows + the rest)", small, n, CoalesceRows)
	}
	big := make([]int32, CoalesceRows)
	for i := range big {
		big[i] = -7
	}
	s.Append(mkBatch(t, big...)) // not small: stays apart, and closes the run before it
	s.Append(mkBatch(t, 1000, 2000))
	s.Append(mkBatch(t, 3000))
	v := s.Snapshot()
	if n := batches(v); n != 4 {
		t.Fatalf("store holds %d batches, want 4", n)
	}
	var last *Batch
	v.ForEach(func(b *Batch, _, _ int) bool { last = b; return true })
	if mn, mx, _ := last.MinMax("x"); last.Len() != 3 || mn != 1000 || mx != 3000 {
		t.Fatalf("merged tail batch: %d rows, zone map [%d, %d], want 3 rows [1000, 3000]", last.Len(), mn, mx)
	}
	if want := v.Len() * 4; s.Bytes() != want || v.Bytes() != want {
		t.Fatalf("bytes: store %d view %d, want %d", s.Bytes(), v.Bytes(), want)
	}
	s.Seal(small + CoalesceRows + 1) // into the merged tail batch
	if got := s.Snapshot().Gather("x", 2, nil); got[0] != 2000 || got[1] != 3000 {
		t.Fatalf("rows after seal = %v want [2000 3000]", got)
	}
	if s.Bytes() != 12 {
		t.Fatalf("bytes after seal = %d, want the 3-row tail batch's 12", s.Bytes())
	}
}
