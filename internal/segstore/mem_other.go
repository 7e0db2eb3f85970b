//go:build !unix

package segstore

// mapBuf falls back to the Go heap where anonymous mappings are not
// available; the pool's recycling and accounting work the same.
func mapBuf(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapBuf leaves the buffer to the garbage collector.
func unmapBuf([]byte) error { return nil }
