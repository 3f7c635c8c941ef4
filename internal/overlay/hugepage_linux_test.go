package overlay

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestReserveAdvisesHugePages reserves a ledger whose reverse slab spans
// 6 MiB and requires the kernel's record of the mapping holding the
// slab's aligned interior to carry the huge-page advice: `hg` among its
// VmFlags in /proc/self/smaps.
func TestReserveAdvisesHugePages(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	l := NewLedger(4096, 384)
	l.Reserve(0, 384) // 4096 × 384 × 4 B = 6 MiB of reverse slab
	defer runtime.KeepAlive(l)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(l.rev[0])))
	lo, hi := hugeRange(addr, len(l.rev)*cap(l.rev[0])*int(unsafe.Sizeof(hostEntry(0))))
	if lo == hi {
		t.Fatal("a 6 MiB slab has no aligned interior")
	}
	start, end := addr+uintptr(lo), addr+uintptr(hi)

	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false // inside the record of the mapping that holds start
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if from, to, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			a, errA := strconv.ParseUint(from, 16, 64)
			b, errB := strconv.ParseUint(to, 16, 64)
			in = errA == nil && errB == nil && uintptr(a) <= start && start < uintptr(b)
			if in && uintptr(b) < end {
				t.Fatalf("the slab's aligned interior [%#x, %#x) spans more than the mapping [%#x, %#x)", start, end, a, b)
			}
			continue
		}
		if in && fields[0] == "VmFlags:" {
			for _, fl := range fields[1:] {
				if fl == "hg" {
					return
				}
			}
			t.Fatalf("the mapping holding the slab at %#x is not advised huge pages: %s", start, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no mapping in /proc/self/smaps holds the slab at %#x", start)
}
