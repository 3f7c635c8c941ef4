package overlay

import "testing"

// TestHugeRange holds the range Reserve advises to the buffer: both
// ends on a huge-page boundary, inside the buffer, empty when no whole
// huge page fits, and otherwise no whole huge page left outside it.
func TestHugeRange(t *testing.T) {
	const mib = 1 << 20
	for _, addr := range []uintptr{0, 8, 4096, hugePage - 4096, hugePage, 3*hugePage + 12345, 1<<40 + 64} {
		for _, n := range []int{0, 1, 4096, hugePage - 1, hugePage, hugePage + 4096, 2*hugePage - 1, 2 * hugePage, 4*mib + 17, 61 * mib} {
			lo, hi := hugeRange(addr, n)
			if lo < 0 || lo > hi || hi > n {
				t.Fatalf("hugeRange(%#x, %d) = [%d, %d): not inside the buffer", addr, n, lo, hi)
			}
			if n < hugePage && lo != hi {
				t.Fatalf("hugeRange(%#x, %d) = [%d, %d): not empty under 2 MiB", addr, n, lo, hi)
			}
			if lo == hi {
				// Empty only when no aligned page fits.
				first := int(-addr & (hugePage - 1))
				if first+hugePage <= n {
					t.Fatalf("hugeRange(%#x, %d) is empty, but the page at offset %d fits", addr, n, first)
				}
				continue
			}
			if (addr+uintptr(lo))%hugePage != 0 || (addr+uintptr(hi))%hugePage != 0 {
				t.Fatalf("hugeRange(%#x, %d) = [%d, %d): an end is not 2 MiB-aligned", addr, n, lo, hi)
			}
			if lo >= hugePage || n-hi >= hugePage {
				t.Fatalf("hugeRange(%#x, %d) = [%d, %d): a whole aligned page is left outside", addr, n, lo, hi)
			}
		}
	}
	if lo, hi := hugeRange(0, 2*hugePage); lo != 0 || hi != 2*hugePage {
		t.Fatalf("an aligned 4 MiB buffer gives [%d, %d), want all of it", lo, hi)
	}
}
