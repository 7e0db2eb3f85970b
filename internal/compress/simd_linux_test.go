package compress

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"

	"repro/internal/bitmap"
)

// TestFilterStopsAtBlockEnd: an interval Filter never reads past a block's
// last byte. A pool frame's payload is an anonymous mapping, which may end
// where the payload does, so each block's wire payload is placed to end
// exactly at a page boundary with the next page mapped PROT_NONE, and
// filtered through DecodeBlock's view over it: any load past the packed
// words faults the test. Every width is covered, the AVX2 loop's included,
// on blocks of one to ten full groups with and without a tail.
func TestFilterStopsAtBlockEnd(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	}()
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for width := uint(1); width <= 32; width++ {
		for _, n := range []int{64, 65, 128, 192, 197, 640, 703} {
			vals, vmin, vmax := widthVals(rng, n, width, 0)
			wire := AppendBlock(NewBitPackBlock(vals), nil)
			payload := mem[page-len(wire) : page : page]
			copy(payload, wire)
			blk, err := DecodeBlock(BitPack, n, payload)
			if err != nil {
				t.Fatal(err)
			}
			mid := int32((int64(vmin) + int64(vmax)) / 2)
			label := fmt.Sprintf("width=%d n=%d", width, n)
			for _, p := range []Pred{Between(vmin, vmax), Between(vmin, vmin), Between(vmax, vmax), Between(vmin, mid), Ge(mid)} {
				sel := predSelection(p)
				for _, base := range []int{0, 13} {
					checkSelection(t, label, blk, sel, sel.oracle(vals), bitmap.New(base+n), base)
				}
			}
		}
	}
}
