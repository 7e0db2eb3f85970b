package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ssb"
)

// TestPaperClaims checks the source paper's I/O findings against the
// committed iostats golden: bytes read, summed over the thirteen SSBM
// queries (or one flight's), per engine configuration. The golden pins what
// this code reads; this test pins that it still reproduces the paper, so a
// change that flattens an ablation step fails here even after -update. Only
// claims that hold in both the paper and the golden are asserted; where the
// two disagree, PERFORMANCE.md's "Reproduction scorecard" records it.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile("testdata/iostats_sf001.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden ioStatsFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	// mb is cfg's bytes read in MB over the thirteen queries of flight
	// (0: all four flights).
	mb := func(cfg Config, flight int) float64 {
		cell := golden[ioStatsKey(cfg)]
		if cell == nil {
			t.Fatalf("%s: no cell in the golden", ioStatsKey(cfg))
		}
		var total int64
		for _, q := range ssb.Queries() {
			if flight == 0 || q.Flight == flight {
				total += cell[q.ID].BytesRead
			}
		}
		return float64(total) / 1e6
	}
	rs, rsMV, cs, csRowMV := Figure5Systems()[0], Figure5Systems()[1], Figure5Systems()[2], Figure5Systems()[3]
	fig6 := Figure6Systems() // T, T(B), MV, VP, AI
	fig7 := Figure7Systems() // tICL, TICL, tiCL, TiCL, ticL, TicL, Ticl
	fig8 := Figure8Systems() // tICL, PJ No C, PJ Int C, PJ Max C
	// step is the factor one Figure 7 ablation step multiplies bytes by.
	step := func(from, to, flight int) float64 { return mb(fig7[to], flight) / mb(fig7[from], flight) }
	compressionLargestOnFlight1 := true
	for f := 2; f <= 4; f++ {
		compressionLargestOnFlight1 = compressionLargestOnFlight1 && step(3, 5, 1) > step(3, 5, f)
	}

	for _, c := range []struct {
		figure, claim string
		holds         bool
	}{
		{"Figure 5", "CS reads less than RS (MV)", mb(cs, 0) < mb(rsMV, 0)},
		{"Figure 5", "RS (MV) reads less than RS", mb(rsMV, 0) < mb(rs, 0)},
		{"Figure 5", "CS (Row-MV) reads more than twice what CS reads", mb(csRowMV, 0) > 2*mb(cs, 0)},
		{"Figure 6", "vertical partitioning reads more than the traditional design", mb(fig6[3], 0) > mb(fig6[0], 0)},
		{"Figure 6", "index-only plans read more than the traditional design", mb(fig6[4], 0) > mb(fig6[0], 0)},
		{"Figure 7", "t→T (tuple-at-a-time) does not decrease bytes read", step(0, 1, 0) >= 1},
		{"Figure 7", "I→i (no invisible join) does not decrease bytes read", step(1, 3, 0) >= 1},
		{"Figure 7", "C→c (no compression) does not decrease bytes read", step(3, 5, 0) >= 1},
		{"Figure 7", "C→c costs most on flight 1, whose sorted columns are run-length encoded", compressionLargestOnFlight1},
		{"Figure 8", "PJ, Max C reads less than the invisible join (tICL)", mb(fig8[3], 0) < mb(fig8[0], 0)},
		{"Figure 8", "PJ, No C reads more than the invisible join", mb(fig8[1], 0) > mb(fig8[0], 0)},
		{"Figure 8", "PJ, Int C reads more than the invisible join", mb(fig8[2], 0) > mb(fig8[0], 0)},
		{"Figure 8", "PJ, Int C reads less than PJ, No C", mb(fig8[2], 0) < mb(fig8[1], 0)},
	} {
		if !c.holds {
			t.Errorf("%s: no longer holds: %s", c.figure, c.claim)
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, cfg := range goldenMatrix() {
			fmt.Fprintf(&b, "\n  %-18s", ioStatsKey(cfg))
			for f := 0; f <= 4; f++ {
				fmt.Fprintf(&b, " %8.3f", mb(cfg, f))
			}
		}
		t.Logf("MB read (13 queries, then flights 1-4):%s", b.String())
	}
}
