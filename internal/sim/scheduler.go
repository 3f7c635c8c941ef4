package sim

// Event scheduling for the engine's event-driven core.
//
// Two structures drive a round:
//
//   - calendar: a bucket queue over future rounds holding each slot's
//     next timed event (death, category change, session toggle, all
//     folded into one wake time per slot). Pushing is O(1); draining a
//     round costs O(entries in the round's bucket). Entries are lazily
//     invalidated: the per-slot sched[] array is the source of truth
//     for when a slot really wakes, and entries that no longer match
//     it are dropped on drain. A slot woken early (its timer moved
//     later after the entry was pushed) simply finds nothing due and
//     reschedules — spurious wakes consume no randomness and emit no
//     events, so they can never perturb a trajectory.
//
//   - visitQueue: a bitset of slot ids, one bit per slot, collecting
//     visit requests (deduped by the bit) until a round freezes its
//     walk set by draining the set bits in ascending slot order — the
//     order the walk set is partitioned across shards in and the order
//     the merge applies effects in. Draining costs one load per word up
//     to the last queued slot: 391 words at the paper's 25 000 peers.

import "math/bits"

// calBuckets is the calendar width in rounds: events within this
// horizon land directly in their round's bucket; events further out
// stay in the bucket (their round modulo the width) and are skipped on
// intermediate drains, costing one touch per cycle. 8192 rounds (~11
// months) covers typical session and category timers; only long
// lifetimes ever wrap.
const calBuckets = 1 << 13

// calNode is one scheduled wake — a slot and the round it is due —
// linked into its bucket's list. Nodes live in the calendar's shared
// arena and are recycled through a freelist when drained, so pushes
// allocate only when the arena's all-time high-water mark grows
// (amortised to ~zero once the wheel is warm), where per-bucket slices
// kept reallocating through the wheel's entire first cycle.
type calNode struct {
	round int64
	slot  int32
	next  int32 // arena index of the next node in the bucket, -1 = end
}

// calendar is the bucket queue. The zero value is unusable; use
// newCalendar.
type calendar struct {
	head  []int32 // per bucket: arena index of the list head, -1 = empty
	arena []calNode
	free  int32 // freelist head, -1 = empty
}

func newCalendar() *calendar {
	c := &calendar{head: make([]int32, calBuckets), free: -1}
	for i := range c.head {
		c.head[i] = -1
	}
	return c
}

// push schedules a wake for slot at round. Stale entries for the same
// slot are tolerated (drain drops them via the sched check).
func (c *calendar) push(slot int32, round int64) {
	b := round & (calBuckets - 1)
	idx := c.free
	if idx >= 0 {
		c.free = c.arena[idx].next
	} else {
		idx = int32(len(c.arena))
		c.arena = append(c.arena, calNode{})
	}
	c.arena[idx] = calNode{round: round, slot: slot, next: c.head[b]}
	c.head[b] = idx
}

// drain appends to out the slots genuinely due at round (entry round
// matches and the slot's authoritative wake time sched[slot] agrees),
// keeps future entries that share the bucket, and recycles due and
// stale ones. List order within a bucket carries no meaning: the
// caller's visit queue orders the walk by slot id, so relinking during
// the filter is free to reverse it.
func (c *calendar) drain(round int64, sched []int64, out []int32) []int32 {
	b := round & (calBuckets - 1)
	idx := c.head[b]
	keep := int32(-1)
	for idx >= 0 {
		n := &c.arena[idx]
		next := n.next
		if n.round > round {
			n.next = keep // future entry sharing the bucket: keep
			keep = idx
		} else {
			if n.round == round && sched[n.slot] == round {
				out = append(out, n.slot)
			}
			n.next = c.free // due or stale: recycle
			c.free = idx
		}
		idx = next
	}
	c.head[b] = keep
	return out
}

// visitQueue is a bitset over slot ids, one bit per slot: a slot is
// queued at most once, and draining the set bits word by word yields
// the slots in ascending order.
type visitQueue struct {
	bits []uint64
	n    int // queued slots
}

func newVisitQueue(n int) *visitQueue {
	return &visitQueue{bits: make([]uint64, (n+63)/64)}
}

// push enqueues a slot; re-pushing a queued slot is a no-op.
func (v *visitQueue) push(id int32) {
	w, b := &v.bits[id>>6], uint64(1)<<(id&63)
	if *w&b == 0 {
		*w |= b
		v.n++
	}
}

// drain appends every queued slot to out in ascending order and empties
// the queue. It stops at the word holding the last queued slot.
func (v *visitQueue) drain(out []int32) []int32 {
	left := v.n
	for i := 0; left > 0; i++ {
		w := v.bits[i]
		if w == 0 {
			continue
		}
		v.bits[i] = 0
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i<<6|bits.TrailingZeros64(w)))
			left--
		}
	}
	v.n = 0
	return out
}
