//go:build !amd64

package compress

import "repro/internal/bitmap"

// Off amd64 every full group takes its width's generated Go routine.
const maxAVX2Width = 0

var useAVX2 = false

func (b *BitPackBlock) intervalSIMD(lo, span uint32, base int, bm *bitmap.Bitmap) int { return 0 }
