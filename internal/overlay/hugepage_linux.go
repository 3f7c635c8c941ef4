package overlay

import "syscall"

// madviseHuge advises transparent huge pages for b, which must start on
// a page boundary. An error (a kernel without THP) leaves b on base
// pages, as it was.
func madviseHuge(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}
