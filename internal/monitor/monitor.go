// Package monitor tracks peer availability history, standing in for the
// secure monitoring protocols the paper assumes (its refs [17] AVMON and
// [14] Pacemaker): "any peer can query the availability of any other
// peer for a given period of time, for example the last 90 days".
//
// The one representation is IntervalHistory: it stores only state
// transitions - O(1) amortised per session change, ideal for the
// simulator where transitions are the rare events. An incrementally
// maintained online-time prefix sum makes window queries O(log
// transitions in window). A stored transition is 8 bytes (round and
// prefix as 32-bit offsets from the history's start, the state in one
// bit of the prefix), so a 90-day history of a peer that toggles twice
// a day is a 2 KiB ring; the API is int64 throughout, and a history
// that would outgrow the offsets — 2^31 rounds after its first
// transition — fails RecordTransition with ErrSpan instead of wrapping.
// The simulator holds its histories by value in one array.
//
// Queries (Uptime, OnlineAt, Transitions) are strictly read-only:
// recording prunes eagerly, queries never mutate. The tests hold
// IntervalHistory to two references: BitHistory (bithistory_test.go),
// one bit per round in a ring, on random schedules, and in
// readonly_test.go a naive unpruned history, answer for answer.
package monitor

import (
	"errors"
	"fmt"
)

// ErrOutOfOrder reports a record at a round earlier than already seen.
var ErrOutOfOrder = errors.New("monitor: record out of order")

// ErrSpan reports an IntervalHistory transition too many rounds after
// the history's first for the packed layout to represent.
var ErrSpan = errors.New("monitor: history span exceeded")

// ---------------------------------------------------------------------------
// IntervalHistory

// transition is a state change at a round, carrying the online-time
// prefix sum: the cumulative number of online rounds from the history's
// start up to (not including) the transition's round. Queries answer
// any window as a difference of two prefix lookups.
//
// The layout is packed to 8 bytes — a paper-scale run keeps 6.4 million
// ring entries: off is the round as an offset from the history's start,
// on holds the prefix sum shifted left one bit with the state the peer
// changed to in bit 0. The prefix never exceeds the offset, so both fit
// as long as the offset stays within maxSpan; RecordTransition refuses a
// transition beyond it rather than wrapping.
type transition struct {
	off uint32
	on  uint32
}

// maxSpan is the longest stretch of rounds one history can cover between
// resets: 31 bits of offset, 245 000 years of hourly rounds.
const maxSpan = 1<<31 - 1

func pack(off, onBefore int64, online bool) transition {
	t := transition{off: uint32(off), on: uint32(onBefore) << 1}
	if online {
		t.on |= 1
	}
	return t
}

func (t transition) online() bool    { return t.on&1 != 0 }
func (t transition) onBefore() int64 { return int64(t.on >> 1) }

// IntervalHistory stores availability as state transitions in a ring
// buffer, pruned to a window as recording advances. Recording is O(1)
// amortised and allocation-free once the ring has grown to the window's
// transition count; Uptime and OnlineAt are read-only binary searches,
// O(log transitions). Stored transitions have strictly increasing rounds
// and alternating states.
//
// The zero value is not usable; histories held by value (the simulator
// keeps one contiguous array of them) are initialised by assigning
// *NewIntervalHistory(window).
type IntervalHistory struct {
	window int64
	start  int64        // round of the first transition since the last Reset
	last   int64        // round of the latest effective record: the out-of-order guard
	buf    []transition // ring; len(buf) is zero or a power of two
	head   int          // ring index of the oldest stored transition
	n      int          // stored transitions; zero until the first record
}

// NewIntervalHistory returns a history answering queries over the last
// window rounds.
func NewIntervalHistory(window int64) *IntervalHistory {
	if window <= 0 {
		panic(fmt.Sprintf("monitor: invalid window %d", window))
	}
	return &IntervalHistory{window: window}
}

// at returns the i-th stored transition in logical (oldest-first) order.
func (h *IntervalHistory) at(i int) *transition {
	return &h.buf[(h.head+i)&(len(h.buf)-1)]
}

// round returns the absolute round of a stored transition.
func (h *IntervalHistory) round(t *transition) int64 { return h.start + int64(t.off) }

// push appends a transition, growing the ring when full.
func (h *IntervalHistory) push(t transition) {
	if h.n == len(h.buf) {
		h.grow()
	}
	*h.at(h.n) = t
	h.n++
}

// grow enlarges the ring fourfold from an initial 16, relinearising the
// stored transitions: a history that fills a ring belongs to a churning
// peer whose stationary count is window-scale (a one-day session cycle
// over a 90-day window stores ~180 transitions), so a 90-day history
// reaches its final 256 entries (2 KiB) in three allocations rather than
// the drip of reallocations per-boundary doubling spreads across a run.
func (h *IntervalHistory) grow() {
	newCap := 4 * len(h.buf)
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]transition, newCap)
	for i := 0; i < h.n; i++ {
		nb[i] = *h.at(i)
	}
	h.buf = nb
	h.head = 0
}

// RecordTransition notes that the peer's state changed to online at the
// given round (i.e. it is online from this round onward until the next
// transition). The first call establishes the initial state. A round
// earlier than the last recorded one is ErrOutOfOrder; one more than
// maxSpan rounds after the first is ErrSpan.
//
// Recording prunes eagerly: transitions that ended before the window
// preceding the recorded round are discarded as they expire, so memory
// stays bounded by the window even for histories that are written every
// session but rarely (or never) queried — the regime of a 50k-round
// simulation where most peers are never candidates. Recording is the
// ONLY mutating operation; queries never prune.
func (h *IntervalHistory) RecordTransition(round int64, online bool) error {
	if h.n == 0 {
		h.start, h.last = round, round
		h.push(pack(0, 0, online))
		return nil
	}
	if round < h.last {
		return fmt.Errorf("%w: transition at %d after %d", ErrOutOfOrder, round, h.last)
	}
	last := h.at(h.n - 1)
	if last.online() == online {
		return nil // redundant transition; ignore
	}
	lastRound := h.round(last)
	if round == lastRound {
		// Same-round flip back. If an older transition is stored it
		// already says what this one does (states alternate), so the
		// last entry is now redundant and dropped; otherwise it is the
		// initial state, rewritten in place. The prefix accumulates
		// strictly before lastRound, so it is unaffected either way.
		if h.n >= 2 {
			h.n--
		} else {
			last.on ^= 1
		}
		return nil
	}
	off := round - h.start
	if off > maxSpan {
		return fmt.Errorf("%w: transition at %d, history starts at %d", ErrSpan, round, h.start)
	}
	on := last.onBefore()
	if last.online() {
		on += round - lastRound
	}
	h.push(pack(off, on, online))
	h.last = round
	h.prune(round)
	return nil
}

// prune discards transitions that end before now-window, keeping the
// one that defines the state at the window start. Pruning only ever
// drops information that no in-window query can see. Offsets and prefix
// sums are anchored at the first transition since the last Reset, so
// dropping the head never requires rebasing.
func (h *IntervalHistory) prune(now int64) {
	cutoff := now - h.window
	for h.n >= 2 && h.round(h.at(1)) <= cutoff {
		h.head = (h.head + 1) & (len(h.buf) - 1)
		h.n--
	}
}

// Reset clears the history, keeping the configured window and the ring
// capacity (a slot's replacement occupant reuses it allocation-free).
// Used when a monitored identity is replaced: the observations belong
// to the departed peer, not to the slot.
func (h *IntervalHistory) Reset() {
	h.head = 0
	h.n = 0
	h.start = 0
	h.last = 0
}

// countAtOrBefore returns how many stored transitions have round <= x
// (binary search over the ring). x must not precede the history's start.
func (h *IntervalHistory) countAtOrBefore(x int64) int {
	off := x - h.start
	lo, hi := 0, h.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(h.at(mid).off) <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// onlineBefore returns the cumulative online rounds in
// [first stored transition, x), from the prefix sums. An x at or past
// the newest stored transition — Uptime's now end, as the simulator
// asks it — is answered from that transition without a search. The
// history must hold a transition.
func (h *IntervalHistory) onlineBefore(x int64) int64 {
	idx := h.n
	if x < h.round(h.at(h.n-1)) {
		idx = h.countAtOrBefore(x)
	}
	if idx == 0 {
		return 0
	}
	t := h.at(idx - 1)
	on := t.onBefore()
	if t.online() {
		on += x - h.round(t)
	}
	return on
}

// Uptime returns the online fraction over [now-n, now), clamped to the
// observed span. now is exclusive. Read-only; cost O(log transitions).
func (h *IntervalHistory) Uptime(now int64, n int64) float64 {
	if h.n == 0 || n <= 0 {
		return 0
	}
	if n > h.window {
		n = h.window
	}
	from := now - n
	if from < h.start {
		from = h.start
	}
	if from >= now {
		return 0
	}
	online := h.onlineBefore(now) - h.onlineBefore(from)
	return float64(online) / float64(now-from)
}

// OnlineAt reports the state at a given round, if observed. Rounds
// older than the pruning window of the latest recorded transition are
// unknown. Read-only; cost O(log transitions).
func (h *IntervalHistory) OnlineAt(round int64) (online, known bool) {
	if h.n == 0 || round < h.start {
		return false, false
	}
	idx := h.countAtOrBefore(round)
	if idx == 0 {
		return false, false // all stored transitions are later (or pruned)
	}
	return h.at(idx - 1).online(), true
}

// Transitions returns the number of stored transitions. The count is
// bounded by recording's eager pruning alone — queries are read-only
// and never change it.
func (h *IntervalHistory) Transitions() int { return h.n }
