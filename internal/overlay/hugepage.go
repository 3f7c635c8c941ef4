package overlay

import "unsafe"

// hugePage is the size of a transparent huge page where base pages are
// 4 KiB (x86-64, and arm64 in its common configuration).
const hugePage = 2 << 20

// hugeRange returns the byte offsets [lo, hi) of the largest run of
// whole, hugePage-aligned pages inside the n-byte buffer at address
// addr. The range is empty (lo == hi) when not one fits, as in any
// buffer under 2 MiB.
func hugeRange(addr uintptr, n int) (lo, hi int) {
	lo = int(-addr & (hugePage - 1)) // up to the first boundary
	if lo >= n {
		return 0, 0
	}
	return lo, lo + (n-lo)&^(hugePage-1)
}

// adviseHugePages asks the kernel to back the huge-page-aligned
// interior of a slab with transparent huge pages (madviseHuge; a no-op
// off Linux). Best effort: the advice changes how fast the slab is
// read, never what it holds. Reserve applies it before the slab's first
// touch, so the pages are huge from the first fault; at the paper's
// scale that is about 30 huge pages for 15 000 base pages, and the
// merge's scattered reverse-list loads stop missing the TLB.
func adviseHugePages[E ~uint32](slab []E) {
	if len(slab) == 0 {
		return
	}
	p := unsafe.Pointer(&slab[0])
	b := unsafe.Slice((*byte)(p), len(slab)*int(unsafe.Sizeof(slab[0])))
	if lo, hi := hugeRange(uintptr(p), len(b)); lo < hi {
		madviseHuge(b[lo:hi])
	}
}
