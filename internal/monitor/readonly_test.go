package monitor

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"p2pbackup/internal/rng"
)

// naiveHistory is a reference implementation of the IntervalHistory
// query semantics: it stores every transition since the last reset,
// never prunes, and answers Uptime by walking segments — the shape the
// production code had before the prefix-sum refactor. Queries are
// compared against it on randomized schedules; the production pruning
// must be invisible to any in-window query.
type naiveHistory struct {
	window int64
	trans  []struct {
		round  int64
		online bool
	}
	began bool
	start int64
}

func (h *naiveHistory) record(round int64, online bool) {
	if h.began {
		last := &h.trans[len(h.trans)-1]
		if last.online == online {
			return
		}
		if round == last.round {
			last.online = online
			return
		}
	} else {
		h.began = true
		h.start = round
	}
	h.trans = append(h.trans, struct {
		round  int64
		online bool
	}{round, online})
}

func (h *naiveHistory) reset() {
	h.trans = h.trans[:0]
	h.began = false
	h.start = 0
}

func (h *naiveHistory) uptime(now, n int64) float64 {
	if !h.began || n <= 0 {
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
	var online int64
	for i, tr := range h.trans {
		if !tr.online {
			continue
		}
		lo := tr.round
		if lo < from {
			lo = from
		}
		hi := now
		if i+1 < len(h.trans) && h.trans[i+1].round < hi {
			hi = h.trans[i+1].round
		}
		if hi > lo {
			online += hi - lo
		}
	}
	return float64(online) / float64(now-from)
}

func (h *naiveHistory) onlineAt(round int64) (bool, bool) {
	if !h.began || round < h.start {
		return false, false
	}
	for i := len(h.trans) - 1; i >= 0; i-- {
		if h.trans[i].round <= round {
			return h.trans[i].online, true
		}
	}
	return false, false
}

// checkPacked asserts the invariants the packed ring layout relies on:
// stored rounds strictly increase, states alternate, and every prefix
// sum is the online time the preceding transitions add up to.
func checkPacked(t *testing.T, h *IntervalHistory) {
	t.Helper()
	for i := 1; i < h.n; i++ {
		prev, cur := h.at(i-1), h.at(i)
		if cur.off <= prev.off {
			t.Fatalf("transition %d at offset %d does not follow %d", i, cur.off, prev.off)
		}
		if cur.online() == prev.online() {
			t.Fatalf("transitions %d and %d both say online=%v", i-1, i, cur.online())
		}
		want := prev.onBefore()
		if prev.online() {
			want += int64(cur.off - prev.off)
		}
		if cur.onBefore() != want {
			t.Fatalf("transition %d: prefix %d, want %d", i, cur.onBefore(), want)
		}
	}
}

// TestIntervalHistoryMatchesNaive drives the prefix-summed
// IntervalHistory and the naive reference through randomized
// record/reset/query schedules and demands bit-identical answers —
// including interleaved queries, which no longer prune and so must
// never perturb later answers. The schedules cover what the packed
// 8-byte layout could get wrong: bursts of same-round flips (a flip back
// drops the entry it cancels), histories whose offsets run up to the
// 31-bit guard (every third trial jumps there; a record past it must
// fail with ErrSpan and leave the history as it was), and Reset reusing
// a grown ring under a new start round.
func TestIntervalHistoryMatchesNaive(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		window := int64(8 + r.Intn(200))
		iv := NewIntervalHistory(window)
		ref := &naiveHistory{window: window}
		nearGuard := trial%3 == 2

		round := int64(r.Intn(50))
		online := r.Bool(0.5)
		record := func(step int) {
			err := iv.RecordTransition(round, online)
			if ref.began && round-ref.start > maxSpan && ref.trans[len(ref.trans)-1].online != online {
				if !errors.Is(err, ErrSpan) {
					t.Fatalf("trial %d step %d: record %d rounds after the start: %v, want ErrSpan",
						trial, step, round-ref.start, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			ref.record(round, online)
		}
		for step := 0; step < 300; step++ {
			switch {
			case r.Bool(0.02): // occupant replaced; the ring keeps its capacity
				grown := len(iv.buf)
				iv.Reset()
				ref.reset()
				if len(iv.buf) != grown {
					t.Fatalf("trial %d step %d: Reset changed the ring from %d to %d entries", trial, step, grown, len(iv.buf))
				}
				round += int64(r.Intn(30))
				online = r.Bool(0.5)
			case r.Bool(0.5): // session transition (sometimes same-round)
				record(step)
				online = !online
				for r.Bool(0.15) { // a burst of flips within the round
					record(step)
					online = !online
				}
				round += int64(r.Intn(12))
				if nearGuard && ref.began && len(ref.trans) == 1 {
					// Leave the rest of the schedule straddling the guard.
					round = ref.start + maxSpan - int64(r.Intn(600))
				}
			default: // query at an arbitrary horizon, including the far future
				now := round + int64(r.Intn(40))
				n := int64(1 + r.Intn(int(window)+40))
				got, want := iv.Uptime(now, n), ref.uptime(now, n)
				if got != want {
					t.Fatalf("trial %d step %d: Uptime(%d,%d) = %v, naive %v", trial, step, now, n, got, want)
				}
				probe := now - int64(r.Intn(int(window)))
				gotOn, gotKnown := iv.OnlineAt(probe)
				wantOn, wantKnown := ref.onlineAt(probe)
				// The reference never prunes; the production history may
				// have forgotten rounds before its stored span. A pruned
				// answer must only ever degrade to unknown, never to a
				// wrong state — and inside the window it must not degrade.
				if gotKnown && (gotOn != wantOn || !wantKnown) {
					t.Fatalf("trial %d step %d: OnlineAt(%d) = (%v,%v), naive (%v,%v)",
						trial, step, probe, gotOn, gotKnown, wantOn, wantKnown)
				}
				if wantKnown && !gotKnown && ref.began && probe >= ref.trans[len(ref.trans)-1].round-window {
					t.Fatalf("trial %d step %d: OnlineAt(%d) unknown inside the window", trial, step, probe)
				}
			}
			checkPacked(t, iv)
		}
	}
}

// TestIntervalHistorySpanGuard pins the packed layout's limit: the last
// representable round is recorded and answered exactly, one round more
// is an error that changes nothing, and a Reset starts a new span.
func TestIntervalHistorySpanGuard(t *testing.T) {
	const start = int64(1000)
	h := NewIntervalHistory(1 << 40) // never prunes: the prefix sum reaches the guard too
	if err := h.RecordTransition(start, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(start+maxSpan+1, false); !errors.Is(err, ErrSpan) {
		t.Fatalf("record past the guard: %v, want ErrSpan", err)
	}
	if err := h.RecordTransition(start+maxSpan, false); err != nil {
		t.Fatalf("record at the guard: %v", err)
	}
	if got := h.at(1).onBefore(); got != maxSpan {
		t.Fatalf("prefix at the guard = %d, want %d", got, int64(maxSpan))
	}
	if got := h.Uptime(start+maxSpan+10, maxSpan+10); got != float64(maxSpan)/float64(maxSpan+10) {
		t.Fatalf("Uptime across the guard = %v", got)
	}
	if on, known := h.OnlineAt(start + maxSpan - 1); !known || !on {
		t.Fatalf("OnlineAt just before the guard = (%v,%v)", on, known)
	}
	if err := h.RecordTransition(start+maxSpan+5, true); !errors.Is(err, ErrSpan) {
		t.Fatalf("record past the guard: %v, want ErrSpan", err)
	}
	if h.Transitions() != 2 {
		t.Fatalf("refused records left %d transitions, want 2", h.Transitions())
	}
	h.Reset()
	if err := h.RecordTransition(start+maxSpan+5, true); err != nil {
		t.Fatalf("record after Reset: %v", err)
	}
}

// TestTransitionSize holds the ring entry at 8 bytes: at paper scale the
// rings hold 6.4 million entries, and the 24-byte layout this replaced
// was a quarter of the simulator's heap.
func TestTransitionSize(t *testing.T) {
	if got := unsafe.Sizeof(transition{}); got != 8 {
		t.Fatalf("transition is %d bytes, want 8", got)
	}
}

// TestHistoriesAgreeWithInterleavedQueries extends the bit/interval
// agreement property with queries fired mid-schedule: read-only queries
// on either representation must not disturb the agreement.
func TestHistoriesAgreeWithInterleavedQueries(t *testing.T) {
	r := rng.New(777)
	const window = 96
	for trial := 0; trial < 30; trial++ {
		bit := NewBitHistory(window)
		iv := NewIntervalHistory(window)
		online := r.Bool(0.5)
		if err := iv.RecordTransition(0, online); err != nil {
			t.Fatal(err)
		}
		total := int64(150 + r.Intn(250))
		for round := int64(0); round < total; round++ {
			if r.Bool(0.12) {
				online = !online
				if err := iv.RecordTransition(round, online); err != nil {
					t.Fatal(err)
				}
			}
			if err := bit.Record(round, online); err != nil {
				t.Fatal(err)
			}
			if r.Bool(0.1) {
				n := int64(1 + r.Intn(window))
				got, want := iv.Uptime(round+1, n), bit.Uptime(int(n))
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d round %d window %d: interval=%v bit=%v", trial, round, n, got, want)
				}
			}
		}
	}
}

// TestIntervalHistoryQueriesAreReadOnly pins the post-refactor
// contract: Uptime, OnlineAt and Transitions are side-effect-free, and
// the stored transition count is bounded by recording's eager pruning
// alone. (Pre-refactor, Uptime pruned and Transitions reported a
// prune-dependent count; querying far in the future could shrink it.)
func TestIntervalHistoryQueriesAreReadOnly(t *testing.T) {
	const window = 50
	h := NewIntervalHistory(window)
	for round := int64(0); round < 400; round += 5 {
		if err := h.RecordTransition(round, (round/5)%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	before := h.Transitions()
	if before == 0 || before > window/5+2 {
		t.Fatalf("eager pruning left %d transitions, want ~%d", before, window/5+1)
	}

	// A barrage of queries — including ones far past the recorded span
	// that the old lazy pruning would have used to discard history —
	// must not change any observable state.
	up := h.Uptime(400, window)
	for _, now := range []int64{100, 395, 400, 1000, 100000} {
		for _, n := range []int64{1, 7, window, 10 * window} {
			h.Uptime(now, n)
		}
		h.OnlineAt(now)
	}
	if got := h.Transitions(); got != before {
		t.Fatalf("queries changed Transitions: %d -> %d", before, got)
	}
	if got := h.Uptime(400, window); got != up {
		t.Fatalf("repeated Uptime changed: %v -> %v", up, got)
	}
	if on, known := h.OnlineAt(390); !known || !on {
		t.Fatalf("OnlineAt(390) = (%v,%v) after query barrage", on, known)
	}
}

// TestBitHistoryPopcountMatchesBitLoop cross-checks the word-masked
// popcount Uptime against a per-bit reference on random schedules and
// window shapes (word-aligned, straddling, wrapping).
func TestBitHistoryPopcountMatchesBitLoop(t *testing.T) {
	r := rng.New(4242)
	for _, window := range []int{7, 63, 64, 65, 100, 129, 640} {
		h := NewBitHistory(window)
		var ref []bool
		total := int64(window*2 + r.Intn(window))
		for round := int64(0); round < total; round++ {
			on := r.Bool(0.6)
			if err := h.Record(round, on); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, on)
		}
		for _, n := range []int{1, 2, 63, 64, 65, window - 1, window, window + 9} {
			if n < 1 {
				continue
			}
			m := n
			if m > window {
				m = window
			}
			on := 0
			for i := len(ref) - m; i < len(ref); i++ {
				if ref[i] {
					on++
				}
			}
			want := float64(on) / float64(m)
			if got := h.Uptime(n); math.Abs(got-want) > 1e-12 {
				t.Fatalf("window %d Uptime(%d) = %v, want %v", window, n, got, want)
			}
		}
	}
}

// TestUptimeNowAtNewestTransition pins the query Uptime's now end
// answers without a search: now at the round of the newest stored
// transition, just after it and just before it, among them a now whose
// round saw a flip and a flip back (the history then stores an older
// transition as its newest). Each answer is held to the naive history
// and, over the rounds before now, to a BitHistory fed the same states.
func TestUptimeNowAtNewestTransition(t *testing.T) {
	r := rng.New(53)
	const window = 64
	for trial := 0; trial < 200; trial++ {
		iv := NewIntervalHistory(window)
		ref := &naiveHistory{window: window}
		bit := NewBitHistory(window)
		online := r.Bool(0.5)
		record := func(round int64, on bool) {
			if err := iv.RecordTransition(round, on); err != nil {
				t.Fatal(err)
			}
			ref.record(round, on)
		}
		check := func(round int64) {
			t.Helper()
			for _, now := range []int64{round - 1, round, round + 1} {
				for _, n := range []int64{1, 2, 7, window / 2, window, window + 5} {
					want := ref.uptime(now, n)
					if oldest := iv.round(iv.at(0)); now-min(n, window) < oldest {
						// Recording at round pruned what came before oldest:
						// the span is clamped to the rounds still stored.
						want = ref.uptime(now, now-oldest)
					}
					if got := iv.Uptime(now, n); got != want {
						t.Fatalf("trial %d: Uptime(%d, %d) = %v, naive %v (newest transition at %d)",
							trial, now, n, got, want, round)
					}
				}
			}
			// The bit history holds the rounds before round.
			for _, n := range []int64{1, 3, window / 3, window} {
				got, want := iv.Uptime(round, n), bit.Uptime(int(n))
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d: Uptime(%d, %d) = %v, bit history %v", trial, round, n, got, want)
				}
			}
		}
		record(0, online)
		round := int64(0)
		for step := 0; step < 60; step++ {
			next := round + 1 + int64(r.Intn(9))
			for ; round < next; round++ {
				if err := bit.Record(round, online); err != nil {
					t.Fatal(err)
				}
			}
			online = !online
			record(round, online)
			if r.Bool(0.3) { // a flip back in the same round
				record(round, !online)
				check(round)
				record(round, online)
			}
			check(round)
		}
	}
}
