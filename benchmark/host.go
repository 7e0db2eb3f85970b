package main

import (
	"sync"
	"time"
)

// spinSink keeps the compiler from deleting the spin loops.
var spinSink uint64

// chase is a 64 MB table holding one pseudo-random cycle through itself:
// following it is a chain of dependent loads that miss every cache.
var chase struct {
	once  sync.Once
	table []uint32
}

const chaseLen = 1 << 24

// hostSpin times a fixed piece of work that does not involve the system
// under test — an xorshift chain (pure ALU) and a pointer chase through 64 MB
// (pure memory latency), about a quarter of a second each here — and returns
// milliseconds. It is measured before and after each workload: when the two
// differ by more than 10 % the host itself changed speed underneath the run,
// and the report flags the workload as disturbed. Nothing is restarted or
// normalised. The memory half matters: this box's episodes slow memory-bound
// code by a quarter or more while an ALU loop barely moves.
func hostSpin() float64 {
	chase.once.Do(func() {
		chase.table = make([]uint32, chaseLen)
		for i := range chase.table {
			// A full-period LCG modulo 2^24: every slot is visited once.
			chase.table[i] = (uint32(i)*1664525 + 1013904223) % chaseLen
		}
	})
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 120_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var p uint32
	for i := 0; i < 1_500_000; i++ {
		p = chase.table[p]
	}
	spinSink = x + uint64(p)
	return float64(time.Since(start)) / 1e6
}
