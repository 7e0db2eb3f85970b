//go:build unix

package segstore

import "syscall"

// mapBuf returns n bytes of private anonymous memory: pages the kernel
// zero-fills on first touch and the Go heap neither owns nor scans, so
// they add nothing to the live heap the garbage collector paces on. n is a
// positive multiple of the page size.
func mapBuf(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapBuf returns a mapBuf mapping to the kernel. b must be the whole
// mapping (length and capacity as mapBuf returned them); no slice of it may
// be used afterwards.
func unmapBuf(b []byte) error { return syscall.Munmap(b) }
