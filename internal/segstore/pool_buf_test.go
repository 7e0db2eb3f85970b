package segstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
)

// bufFetcher serves bit-packed segments whose words are a view over a
// buffer from the pool's getBuf: the ownership a store's frames have.
// Segment k holds 1000 × (1 + k.Seg%4) full-width values, so its payload
// rounds to 1–4 pages.
type bufFetcher struct{ p *Pool }

func bufSegVals(k SegKey) []int32 {
	vals := make([]int32, 1000*(1+int(k.Seg%4)))
	for i := range vals {
		vals[i] = int32(uint32(i)*2654435761) ^ (k.Col<<20 | k.Seg)
	}
	return vals
}

func (f *bufFetcher) fetch(k SegKey) (compress.IntBlock, int64, []byte, error) {
	vals := bufSegVals(k)
	wire := compress.AppendBlock(compress.NewBitPackBlock(vals), nil)
	buf, err := f.p.getBuf(len(wire))
	if err != nil {
		return nil, 0, nil, err
	}
	copy(buf, wire)
	blk, err := compress.DecodeBlock(compress.BitPack, len(vals), buf)
	if err != nil {
		f.p.putBuf(buf)
		return nil, 0, nil, err
	}
	return blk, int64(len(wire)), buf, nil
}

// bufSegLen is segment k's payload length.
func bufSegLen(k SegKey) int64 {
	return int64(len(compress.AppendBlock(compress.NewBitPackBlock(bufSegVals(k)), nil)))
}

func newBufPool(budget int64) *Pool {
	f := &bufFetcher{}
	f.p = NewPool(budget, f.fetch)
	return f.p
}

// checkLedger requires every mapped byte to have exactly one owner, a
// resident frame or a spare, with nothing in flight: a buffer given back
// twice shows up as a duplicate owner or as Mapped short of the owners'
// sum, a buffer never given back as Mapped over it.
func checkLedger(t *testing.T, p *Pool) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[*byte]string{}
	var owned, spare int64
	own := func(b []byte, who string) {
		b = b[:cap(b)]
		if prev, dup := seen[&b[0]]; dup {
			t.Errorf("one buffer owned twice: by %s and by %s", prev, who)
		}
		seen[&b[0]] = who
		owned += int64(len(b))
	}
	for k, f := range p.frames {
		if f.buf != nil {
			own(f.buf, fmt.Sprintf("frame %v", k))
		}
	}
	for size, s := range p.spares {
		if len(s) > spareKeep {
			t.Errorf("%d spares of %d bytes, bound %d", len(s), size, spareKeep)
		}
		for _, b := range s {
			if cap(b) != size {
				t.Errorf("a %d-byte spare filed under %d", cap(b), size)
			}
			own(b, "a spare")
			spare += int64(size)
		}
	}
	if owned != p.mapped {
		t.Errorf("mapped %d bytes, owners hold %d", p.mapped, owned)
	}
	if spare != p.spare {
		t.Errorf("spare gauge %d, spares hold %d", p.spare, spare)
	}
	if len(p.unmapQ) != 0 {
		t.Errorf("%d buffers queued for unmapping with mu released", len(p.unmapQ))
	}
}

// TestPoolPinnedBufferNeverRecycled pins one block, then drives hundreds of
// misses and evictions through a budget of about two segments, with a Reset
// every 50 rounds, so buffers of the pinned block's length are given back
// and reused throughout. The pinned block must read the same afterwards:
// its buffer was never handed out.
func TestPoolPinnedBufferNeverRecycled(t *testing.T) {
	p := newBufPool(2 * 4016)
	pinned := SegKey{Col: 9, Seg: 0}
	blk, release, err := p.Acquire(pinned)
	if err != nil {
		t.Fatal(err)
	}
	want := blk.AppendTo(nil)
	var total PoolStats
	tally := func() {
		st := p.Stats()
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Mappings += st.Mappings
	}
	for i := 0; i < 600; i++ {
		if i%50 == 49 {
			tally()
			p.Reset()
		}
		// Two segments of one length pinned at once, so the pool needs two
		// buffers of that length: every spare of it gets handed out.
		var rels []func()
		for _, k := range []SegKey{{Col: int32(i % 5), Seg: int32(i % 8)}, {Col: int32(i % 5), Seg: int32((i + 4) % 8)}} {
			b, rel, err := p.Acquire(k)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.AppendTo(nil); !slices.Equal(got, bufSegVals(k)) {
				t.Fatalf("segment %v reads wrong values", k)
			}
			rels = append(rels, rel)
		}
		for _, rel := range rels {
			rel()
		}
	}
	if got := blk.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatal("the pinned block's bytes changed while it was pinned")
	}
	tally()
	if total.Evictions < 300 || total.Misses < 300 {
		t.Fatalf("only %d misses and %d evictions: the budget did not churn", total.Misses, total.Evictions)
	}
	if total.Mappings*10 > total.Misses {
		t.Errorf("%d mappings for %d misses: spares are not reused", total.Mappings, total.Misses)
	}
	checkLedger(t, p)
	release()
	checkLedger(t, p)
}

// TestPoolBuffersReleasedOnce churns a tight pool, resets it with a frame
// pinned, and closes it: at every step each mapped byte has one owner, and
// after the close and the last release nothing stays mapped.
func TestPoolBuffersReleasedOnce(t *testing.T) {
	p := newBufPool(3 * 4016)
	for i := 0; i < 400; i++ {
		_, rel, err := p.Acquire(SegKey{Col: int32(i % 3), Seg: int32((i * 7) % 13)})
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	checkLedger(t, p)

	k := SegKey{Col: 7, Seg: 3}
	n := bufSegLen(k)
	blk, release, err := p.Acquire(k)
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	checkLedger(t, p)
	st := p.Stats()
	if st.Resident != n || st.Mapped != int64(pageRound(int(n)))+st.Spare {
		t.Fatalf("after Reset with one %d-byte frame pinned: %+v", n, st)
	}
	p.close()
	checkLedger(t, p)
	if st := p.Stats(); st.Spare != 0 || st.Mapped != int64(pageRound(int(n))) {
		t.Fatalf("after close with one %d-byte frame pinned: %+v", n, st)
	}
	if !slices.Equal(blk.AppendTo(nil), bufSegVals(k)) {
		t.Fatal("a frame pinned across close changed")
	}
	release()
	checkLedger(t, p)
	if st := p.Stats(); st.Mapped != 0 || st.Resident != 0 || len(p.frames) != 0 {
		t.Fatalf("after the last release on a closed pool: %+v, %d frames", st, len(p.frames))
	}
}

// TestStoreCloseReleasesFrames acquires every segment of a store, keeping
// one pinned, and closes it: every unpinned buffer is unmapped at once,
// the pinned block stays readable until its release, and an Acquire after
// Close fails instead of returning a freed frame, resident key included.
// The "runs" column is run-length encoded, so its read buffers must come
// straight back.
func TestStoreCloseReleasesFrames(t *testing.T) {
	rows := 3*colstore.BlockSize + 77
	tab := buildTestTable(t, rows)
	runs := make([]int32, rows)
	for i := range runs {
		runs[i] = int32(i / 5000)
	}
	tab.AddColumn(colstore.NewColumn("runs", runs, nil, colstore.Unsorted, true))
	st, _ := saveTestStore(t, tab, 0)
	got, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got.ColumnNames() {
		got.MustColumn(name).DecodeAll(nil, nil)
	}
	if enc := got.MustColumn("runs").BlockEncoding(0); enc != compress.RLE {
		t.Fatalf("column runs block 0 is %v, want run-length", enc)
	}
	ps := st.Pool().Stats()
	if ps.Mapped == 0 || ps.Resident == 0 {
		t.Fatalf("no bit-packed frame holds a mapped buffer: %+v", ps)
	}
	checkLedger(t, st.Pool())

	col := got.MustColumn("mono")
	if col.BlockEncoding(0) != compress.BitPack {
		t.Fatalf("column mono block 0 is %v, want bit-packed", col.BlockEncoding(0))
	}
	want := col.DecodeAll(nil, nil)[:colstore.BlockSize]
	blk, release := col.AcquireBlock(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st.Pool())
	ps = st.Pool().Stats()
	if ps.Spare != 0 || ps.Resident == 0 || ps.Mapped != int64(pageRound(int(ps.Resident))) {
		t.Fatalf("after Close with one frame pinned: %+v", ps)
	}
	if !slices.Equal(blk.AppendTo(nil), want) {
		t.Fatal("a block pinned across Close changed")
	}
	release()
	if ps := st.Pool().Stats(); ps.Mapped != 0 || ps.Resident != 0 {
		t.Fatalf("after the last release: %+v", ps)
	}
	checkLedger(t, st.Pool())

	for _, k := range []SegKey{{Col: 0, Seg: 0}, {Col: 2, Seg: 0}} {
		if _, _, err := st.Pool().Acquire(k); err == nil {
			t.Fatalf("Acquire(%v) after Close succeeded", k)
		}
	}
}

// TestPoolSpareBound is TestPoolConcurrent's hammer over mapped buffers of
// four page-rounded lengths: spare bytes must stay within spareKeep buffers
// per length at every snapshot, and every acquire must see its own values.
func TestPoolSpareBound(t *testing.T) {
	p := newBufPool(6 * 4016)
	var bound int64
	for seg := int32(0); seg < 4; seg++ {
		bound += spareKeep * int64(pageRound(int(bufSegLen(SegKey{Seg: seg}))))
	}
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := p.Stats(); st.Spare > bound || st.Spare < 0 || st.Spare > st.Mapped {
				t.Errorf("spare %d, mapped %d: bound %d", st.Spare, st.Mapped, bound)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := SegKey{Col: int32(i % 3), Seg: int32((i*7 + g) % 11)}
				blk, release, err := p.Acquire(k)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := blk.Get(5); got != bufSegVals(k)[5] {
					t.Errorf("goroutine %d: block %v holds %d", g, k, got)
				}
				release()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	watch.Wait()
	checkLedger(t, p)
	if st := p.Stats(); st.Spare > bound || st.Evictions == 0 {
		t.Fatalf("after the hammer: %+v (spare bound %d)", st, bound)
	}
	p.close()
	if st := p.Stats(); st.Mapped != 0 {
		t.Fatalf("mapped %d after close with nothing pinned", st.Mapped)
	}
}
