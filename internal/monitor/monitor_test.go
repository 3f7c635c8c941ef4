package monitor

import (
	"errors"
	"math"
	"testing"

	"p2pbackup/internal/rng"
)

func TestBitHistoryBasics(t *testing.T) {
	h := NewBitHistory(8)
	if h.Window() != 8 {
		t.Fatalf("Window = %d", h.Window())
	}
	if h.Uptime(5) != 0 || h.FullWindowUptime() != 0 {
		t.Fatal("empty history uptime must be 0")
	}
	// Record: online for 3, offline for 1.
	for r := int64(10); r < 13; r++ {
		if err := h.Record(r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Record(13, false); err != nil {
		t.Fatal(err)
	}
	if h.Recorded() != 4 {
		t.Fatalf("Recorded = %d", h.Recorded())
	}
	if got := h.Uptime(4); got != 0.75 {
		t.Fatalf("Uptime(4) = %v, want 0.75", got)
	}
	if got := h.Uptime(1); got != 0 {
		t.Fatalf("Uptime(1) = %v, want 0 (last round offline)", got)
	}
	if on, known := h.OnlineAt(11); !known || !on {
		t.Fatal("OnlineAt(11) wrong")
	}
	if on, known := h.OnlineAt(13); !known || on {
		t.Fatal("OnlineAt(13) wrong")
	}
	if _, known := h.OnlineAt(9); known {
		t.Fatal("round before start must be unknown")
	}
	if _, known := h.OnlineAt(14); known {
		t.Fatal("future round must be unknown")
	}
}

func TestBitHistoryOutOfOrder(t *testing.T) {
	h := NewBitHistory(4)
	if err := h.Record(5, true); err != nil {
		t.Fatal(err)
	}
	if err := h.Record(7, true); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap accepted: %v", err)
	}
	if err := h.Record(5, true); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestBitHistoryWrapAround(t *testing.T) {
	h := NewBitHistory(10)
	// 30 rounds: online on even rounds.
	for r := int64(0); r < 30; r++ {
		if err := h.Record(r, r%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if h.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want window", h.Recorded())
	}
	if got := h.FullWindowUptime(); got != 0.5 {
		t.Fatalf("FullWindowUptime = %v, want 0.5", got)
	}
	if got := h.Uptime(10); got != 0.5 {
		t.Fatalf("Uptime(10) = %v, want 0.5", got)
	}
	// Old rounds are forgotten.
	if _, known := h.OnlineAt(5); known {
		t.Fatal("round outside window must be unknown")
	}
	if on, known := h.OnlineAt(28); !known || !on {
		t.Fatal("recent even round must be online")
	}
}

func TestBitHistoryPartialWindowPopcount(t *testing.T) {
	h := NewBitHistory(100)
	for r := int64(0); r < 7; r++ {
		_ = h.Record(r, r < 5)
	}
	want := 5.0 / 7
	if got := h.FullWindowUptime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("partial FullWindowUptime = %v, want %v", got, want)
	}
}

func TestNewHistoryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBitHistory(0) },
		func() { NewIntervalHistory(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid window must panic")
				}
			}()
			f()
		}()
	}
}

func TestIntervalHistoryBasics(t *testing.T) {
	h := NewIntervalHistory(100)
	if h.Uptime(50, 10) != 0 {
		t.Fatal("empty history uptime must be 0")
	}
	// Online [0, 10), offline [10, 30), online [30, ...).
	if err := h.RecordTransition(0, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(10, false); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(30, true); err != nil {
		t.Fatal(err)
	}
	// Over [0, 40): online 10 + 10 = 20 of 40.
	if got := h.Uptime(40, 40); got != 0.5 {
		t.Fatalf("Uptime(40, 40) = %v, want 0.5", got)
	}
	// Over [30, 40): fully online.
	if got := h.Uptime(40, 10); got != 1 {
		t.Fatalf("Uptime(40, 10) = %v, want 1", got)
	}
	// Over [15, 25): fully offline.
	if got := h.Uptime(25, 10); got != 0 {
		t.Fatalf("Uptime(25, 10) = %v, want 0", got)
	}
	if on, known := h.OnlineAt(5); !known || !on {
		t.Fatal("OnlineAt(5) wrong")
	}
	if on, known := h.OnlineAt(15); !known || on {
		t.Fatal("OnlineAt(15) wrong")
	}
	if _, known := h.OnlineAt(-1); known {
		t.Fatal("pre-history round must be unknown")
	}
}

func TestIntervalHistoryRedundantAndSameRound(t *testing.T) {
	h := NewIntervalHistory(100)
	_ = h.RecordTransition(0, true)
	if err := h.RecordTransition(5, true); err != nil {
		t.Fatal("redundant transition must be ignored, not fail")
	}
	if h.Transitions() != 1 {
		t.Fatalf("Transitions = %d, want 1", h.Transitions())
	}
	// A same-round flip back cancels the transition it follows: the
	// stored states keep alternating instead of leaving (0,on) (10,on).
	_ = h.RecordTransition(10, false)
	_ = h.RecordTransition(10, true)
	if h.Transitions() != 1 {
		t.Fatalf("Transitions = %d, want 1 after a same-round flip back", h.Transitions())
	}
	if on, _ := h.OnlineAt(10); !on {
		t.Fatal("same-round replacement must win")
	}
	// The cancelled record still counts for ordering.
	if err := h.RecordTransition(3, false); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out of order accepted: %v", err)
	}
	if err := h.RecordTransition(9, false); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("record before a cancelled same-round flip accepted: %v", err)
	}
	// The initial state has no predecessor and is rewritten in place.
	h = NewIntervalHistory(100)
	_ = h.RecordTransition(4, false)
	_ = h.RecordTransition(4, true)
	if on, known := h.OnlineAt(4); h.Transitions() != 1 || !known || !on {
		t.Fatalf("initial same-round flip: %d transitions, OnlineAt(4) = (%v,%v)", h.Transitions(), on, known)
	}
}

func TestIntervalHistoryClampsToObservedSpan(t *testing.T) {
	h := NewIntervalHistory(1000)
	_ = h.RecordTransition(100, true)
	// Query window [0, 110) clamps to [100, 110): fully online.
	if got := h.Uptime(110, 110); got != 1 {
		t.Fatalf("clamped uptime = %v, want 1", got)
	}
	// Query entirely before the first observation.
	if got := h.Uptime(100, 50); got != 0 {
		t.Fatalf("pre-observation uptime = %v, want 0", got)
	}
}

func TestIntervalHistoryPruning(t *testing.T) {
	h := NewIntervalHistory(50)
	for r := int64(0); r < 200; r += 10 {
		_ = h.RecordTransition(r, (r/10)%2 == 0)
	}
	// Recording prunes eagerly, so the stored count is already bounded
	// by the window; queries are read-only and change nothing.
	before := h.Transitions()
	_ = h.Uptime(200, 50)
	if h.Transitions() != before {
		t.Fatalf("query changed Transitions: %d -> %d", before, h.Transitions())
	}
	if h.Transitions() > 7 {
		t.Fatalf("pruning left %d transitions", h.Transitions())
	}
	// Uptime over the last 50 rounds: alternating 10-on/10-off, window
	// [150, 200): on [160,170) + [180,190) = 20 of 50... recompute:
	// state at r in [150,160) is (150/10)%2==0 -> false? 15%2=1 -> offline.
	// [160,170): 16%2=0 online; [170,180) offline; [180,190) online;
	// [190,200) offline. Online total 20/50.
	if got := h.Uptime(200, 50); got != 0.4 {
		t.Fatalf("post-prune uptime = %v, want 0.4", got)
	}
}

// TestHistoriesAgree drives both representations with the same random
// schedule and checks they report identical uptimes.
func TestHistoriesAgree(t *testing.T) {
	r := rng.New(42)
	const window = 64
	for trial := 0; trial < 20; trial++ {
		bit := NewBitHistory(window)
		iv := NewIntervalHistory(window)
		online := r.Bool(0.5)
		_ = iv.RecordTransition(0, online)
		total := int64(200 + r.Intn(200))
		for round := int64(0); round < total; round++ {
			if r.Bool(0.1) {
				online = !online
				_ = iv.RecordTransition(round, online)
			}
			if err := bit.Record(round, online); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int64{1, 5, 17, 40, window} {
			got := iv.Uptime(total, n)
			want := bit.Uptime(int(n))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d window %d: interval=%v bit=%v", trial, n, got, want)
			}
		}
	}
}

func TestIntervalHistoryReset(t *testing.T) {
	h := NewIntervalHistory(100)
	if err := h.RecordTransition(10, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(40, false); err != nil {
		t.Fatal(err)
	}
	if h.Transitions() == 0 {
		t.Fatal("no transitions recorded")
	}
	h.Reset()
	if h.Transitions() != 0 {
		t.Fatalf("transitions after Reset = %d", h.Transitions())
	}
	if got := h.Uptime(50, 50); got != 0 {
		t.Fatalf("Uptime after Reset = %v, want 0", got)
	}
	// The history is reusable, including from an earlier round than the
	// pre-reset tail (a replacement peer joins "in the past" of nothing).
	if err := h.RecordTransition(5, true); err != nil {
		t.Fatal(err)
	}
	if got := h.Uptime(25, 20); got != 1 {
		t.Fatalf("Uptime after reuse = %v, want 1", got)
	}
}

// TestIntervalHistoryEagerPruneBounded: recording alone must keep the
// transition list bounded by the window — a never-queried slot in a
// 50k-round run must not grow without limit (pruning used to happen
// only inside Uptime).
func TestIntervalHistoryEagerPruneBounded(t *testing.T) {
	const window = 48
	h := NewIntervalHistory(window)
	online := true
	for round := int64(0); round < 50_000; round++ {
		if err := h.RecordTransition(round, online); err != nil {
			t.Fatal(err)
		}
		online = !online
		// One transition per round: the in-window count can never
		// exceed window+1 (one defining the window-start state plus one
		// per round inside it).
		if n := h.Transitions(); n > window+1 {
			t.Fatalf("round %d: %d transitions stored, want <= %d", round, n, window+1)
		}
	}
	if n := h.Transitions(); n > window+1 {
		t.Fatalf("final transition count %d, want <= %d", n, window+1)
	}
}

// TestIntervalHistoryOnlineAtBinarySearch pins OnlineAt behaviour on a
// known schedule, including the unknown cases the search must preserve
// (before first observation, pruned-away past).
func TestIntervalHistoryOnlineAtBinarySearch(t *testing.T) {
	h := NewIntervalHistory(1000)
	sched := []struct {
		round  int64
		online bool
	}{{10, true}, {25, false}, {60, true}, {100, false}}
	for _, s := range sched {
		if err := h.RecordTransition(s.round, s.online); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		round  int64
		online bool
		known  bool
	}{
		{9, false, false}, // before first observation
		{10, true, true},
		{24, true, true},
		{25, false, true},
		{59, false, true},
		{60, true, true},
		{99, true, true},
		{100, false, true},
		{5000, false, true}, // state persists past the last transition
	}
	for _, c := range cases {
		online, known := h.OnlineAt(c.round)
		if online != c.online || known != c.known {
			t.Errorf("OnlineAt(%d) = (%v,%v), want (%v,%v)", c.round, online, known, c.online, c.known)
		}
	}
}

// TestHistoriesAgreeAfterReset drives both representations through a
// random schedule, resets them mid-schedule (the engine does this when
// a monitored identity is replaced), re-seeds them with a fresh
// schedule, and checks the windowed uptimes still agree: Reset must
// leave no residue in either representation.
func TestHistoriesAgreeAfterReset(t *testing.T) {
	r := rng.New(97)
	const window = 64
	for trial := 0; trial < 20; trial++ {
		bit := NewBitHistory(window)
		iv := NewIntervalHistory(window)
		online := r.Bool(0.5)
		_ = iv.RecordTransition(0, online)
		preTotal := int64(100 + r.Intn(200))
		for round := int64(0); round < preTotal; round++ {
			if r.Bool(0.15) {
				online = !online
				_ = iv.RecordTransition(round, online)
			}
			if err := bit.Record(round, online); err != nil {
				t.Fatal(err)
			}
		}

		// Mid-schedule replacement: both histories restart. The bit
		// history has no Reset; a fresh instance is its reset, which is
		// exactly what the equivalence must survive.
		iv.Reset()
		bit = NewBitHistory(window)

		start := preTotal + int64(r.Intn(50)) // the replacement joins later
		online = r.Bool(0.5)
		_ = iv.RecordTransition(start, online)
		total := start + int64(100+r.Intn(200))
		for round := start; round < total; round++ {
			if r.Bool(0.15) {
				online = !online
				_ = iv.RecordTransition(round, online)
			}
			if err := bit.Record(round, online); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int64{1, 7, 23, 40, window} {
			got := iv.Uptime(total, n)
			want := bit.Uptime(int(n))
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d window %d: interval=%v bit=%v", trial, n, got, want)
			}
		}
	}
}
