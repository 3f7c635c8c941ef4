package monitor

// BitHistory is the reference the tests hold IntervalHistory to: one
// online/offline bit per round in a ring buffer - exact, O(1) per-round
// recording, fixed memory, as a monitor that probes every round would
// keep. Window queries use word-masked popcounts: O(window/64).

import (
	"fmt"
	"math/bits"
)

// BitHistory stores one online/offline bit per round over a sliding
// window.
type BitHistory struct {
	window int
	words  []uint64
	// next is the round the next Record call must carry.
	next int64
	// recorded is min(total records, window).
	recorded int
	// began is set by the first Record.
	began bool
}

// NewBitHistory returns a history covering the last window rounds.
func NewBitHistory(window int) *BitHistory {
	if window <= 0 {
		panic(fmt.Sprintf("monitor: invalid window %d", window))
	}
	return &BitHistory{window: window, words: make([]uint64, (window+63)/64)}
}

// Window returns the configured window length.
func (h *BitHistory) Window() int { return h.window }

// Record appends the peer's state for the given round. Rounds must be
// recorded consecutively starting from the first call.
func (h *BitHistory) Record(round int64, online bool) error {
	if !h.began {
		h.began = true
		h.next = round
	}
	if round != h.next {
		return fmt.Errorf("%w: got round %d, want %d", ErrOutOfOrder, round, h.next)
	}
	idx := int(round % int64(h.window))
	word, bit := idx/64, uint(idx%64)
	if online {
		h.words[word] |= 1 << bit
	} else {
		h.words[word] &^= 1 << bit
	}
	h.next++
	if h.recorded < h.window {
		h.recorded++
	}
	return nil
}

// Recorded returns how many rounds currently back the window (at most
// Window).
func (h *BitHistory) Recorded() int { return h.recorded }

// OnlineAt reports the recorded state for a round inside the window.
func (h *BitHistory) OnlineAt(round int64) (online, known bool) {
	if !h.began || round >= h.next || round < h.next-int64(h.recorded) {
		return false, false
	}
	idx := int(round % int64(h.window))
	return h.words[idx/64]>>(uint(idx%64))&1 == 1, true
}

// Uptime returns the fraction of recorded rounds spent online over the
// last n rounds (n clamped to the recorded span). Zero when nothing is
// recorded. Cost: O(n/64) via word-masked popcounts.
func (h *BitHistory) Uptime(n int) float64 {
	if n <= 0 || h.recorded == 0 {
		return 0
	}
	if n > h.recorded {
		n = h.recorded
	}
	idx := int((h.next - int64(n)) % int64(h.window))
	return float64(h.countRange(idx, n)) / float64(n)
}

// countRange counts set bits in the circular bit-index range
// [idx, idx+n) of the window ring.
func (h *BitHistory) countRange(idx, n int) int {
	if idx+n <= h.window {
		return h.countSpan(idx, n)
	}
	first := h.window - idx
	return h.countSpan(idx, first) + h.countSpan(0, n-first)
}

// countSpan counts set bits in the non-wrapping bit range [lo, lo+n)
// with word-level popcounts.
func (h *BitHistory) countSpan(lo, n int) int {
	hi := lo + n // exclusive
	w0, w1 := lo/64, (hi-1)/64
	b0 := uint(lo % 64)
	if w0 == w1 {
		mask := (^uint64(0) >> (64 - uint(n))) << b0
		return bits.OnesCount64(h.words[w0] & mask)
	}
	count := bits.OnesCount64(h.words[w0] >> b0)
	for w := w0 + 1; w < w1; w++ {
		count += bits.OnesCount64(h.words[w])
	}
	tail := uint(hi - w1*64) // bits used in the last word, 1..64
	count += bits.OnesCount64(h.words[w1] << (64 - tail) >> (64 - tail))
	return count
}

// FullWindowUptime returns the online fraction over the whole recorded
// window (kept for callers that want the intent spelled out; Uptime
// uses the same popcount fast path).
func (h *BitHistory) FullWindowUptime() float64 {
	return h.Uptime(h.recorded)
}
