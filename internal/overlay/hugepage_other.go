//go:build !linux

package overlay

// madviseHuge is a no-op where there is no madvise(MADV_HUGEPAGE).
func madviseHuge([]byte) {}
