package maintenance

import (
	"sync"

	"p2pbackup/internal/overlay"
)

// markSet is the per-step membership scratch of refreshPool and the
// upload loops: one word per slot, stamped with the epoch of the step
// that wrote it, so opening a new epoch clears every mark at once. A
// slot is marked as a partner of the acting owner (a host of one of its
// blocks or of an upload in flight) or as a member of its candidate
// pool, never both: a candidate leaves the pool when it becomes a
// partner. Epochs are even; bit 0 of a mark tells the two apart.
type markSet struct {
	epoch uint64
	mark  []uint64
}

func newMarkSet(n int) markSet { return markSet{mark: make([]uint64, n)} }

// open starts a new epoch: no slot is marked.
func (s *markSet) open() { s.epoch += 2 }

func (s *markSet) setPartner(id overlay.PeerID)     { s.mark[id] = s.epoch }
func (s *markSet) isPartner(id overlay.PeerID) bool { return s.mark[id] == s.epoch }
func (s *markSet) setPooled(id overlay.PeerID)      { s.mark[id] = s.epoch | 1 }

// taken reports whether the slot is a partner or already pooled: either
// way it cannot be pooled (again). It reads the set by value: the
// candidate loop asks it of a copy held in registers, which still sees
// every mark written through the original, since the two share the array
// and marks are not written under a new epoch inside the loop.
func (s markSet) taken(id overlay.PeerID) bool { return s.mark[id]|1 == s.epoch|1 }

// minFreePools is the floor of poolCache.limit for small populations.
const minFreePools = 16

// poolCache recycles candidate-pool buffers between steps and episodes,
// so that a slot holds one only while its pool holds candidates and the
// steady trickle of repairs allocates nothing. It keeps at most limit
// buffers (1/256 of the population) and lets the collector have the
// rest: when a bandwidth-limited population starts uploading, every
// slot holds a pool at once, and a cache that kept all of those buffers
// would pin that burst for the whole run. Which buffer a pool gets is
// invisible to a trajectory — it starts empty and only its capacity
// differs.
//
// Buffers are taken and returned inside concurrent PlanSteps and slots
// reset inside the engine's shard-parallel walk, hence the lock, taken
// a handful of times per step and never contended for long.
type poolCache struct {
	mu    sync.Mutex
	free  [][]poolEntry
	limit int
}

// grow moves pool's entries into a buffer of at least the given
// capacity — the cache's most recent one if it is large enough (one
// that is not is dropped, so small buffers cannot clog the cache) — and
// hands pool's old buffer, if any, back.
func (c *poolCache) grow(pool []poolEntry, capacity int) []poolEntry {
	var buf []poolEntry
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		buf = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	}
	c.mu.Unlock()
	if cap(buf) < capacity {
		buf = make([]poolEntry, 0, capacity)
	}
	buf = append(buf, pool...)
	if pool != nil {
		c.put(pool)
	}
	return buf
}

// put hands a buffer back, or drops it when the cache is full.
func (c *poolCache) put(pool []poolEntry) {
	c.mu.Lock()
	if len(c.free) < c.limit {
		c.free = append(c.free, pool[:0])
	}
	c.mu.Unlock()
}
