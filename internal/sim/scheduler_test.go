package sim

import (
	"context"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/overlay"
)

func TestVisitQueueOrderingAndDedupe(t *testing.T) {
	q := newVisitQueue(64)
	in := []int32{9, 3, 41, 3, 0, 9, 27, 0}
	for _, id := range in {
		q.push(id)
	}
	var got []int32
	for !q.empty() {
		got = append(got, q.pop())
	}
	want := []int32{0, 3, 9, 27, 41}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v (ascending, deduped)", got, want)
		}
	}
	// After popping, slots can be queued again.
	q.push(3)
	if q.empty() || q.pop() != 3 {
		t.Fatal("queue must accept a slot again after popping it")
	}
}

func TestCalendarDrainMatchesSched(t *testing.T) {
	c := newCalendar()
	sched := make([]int64, 8)
	for i := range sched {
		sched[i] = never
	}
	// Slot 1 due now; slot 2 stale (rescheduled later); slot 3 shares
	// the bucket but is a full cycle away; slot 4 due now via a second
	// entry after a reschedule round-trip.
	sched[1] = 100
	c.push(1, 100)
	sched[2] = 200
	c.push(2, 100) // stale: sched moved to 200
	sched[3] = 100 + calBuckets
	c.push(3, 100+calBuckets)
	sched[4] = 100
	c.push(4, 60) // stale early entry
	c.push(4, 100)

	due := c.drain(100, sched, nil)
	want := map[int32]bool{1: true, 4: true}
	if len(due) != 2 || !want[due[0]] || !want[due[1]] || due[0] == due[1] {
		t.Fatalf("drain(100) = %v, want slots 1 and 4", due)
	}
	// The far-future entry must survive the shared-bucket drain.
	due = c.drain(100+calBuckets, sched, nil)
	if len(due) != 1 || due[0] != 3 {
		t.Fatalf("drain(%d) = %v, want [3]", 100+calBuckets, due)
	}
}

// TestQuiescentPopulationIdles: with immortal always-online peers the
// engine must go fully idle once the initial uploads drain — empty
// walk queues and an empty active set. This is the structural property
// behind the O(events) per-round cost: a slot with no due timer, no
// loss check and no pending work is never touched.
func TestQuiescentPopulationIdles(t *testing.T) {
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "immortal", Proportion: 1, Availability: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Profiles = profiles
	cfg.Avail = churn.AlwaysOnline{}
	cfg.Rounds = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		s.StepRound()
	}
	for id := range s.peers {
		if !s.maint.Included(overlay.PeerID(id)) {
			t.Fatalf("peer %d not included after warmup", id)
		}
		if s.maint.Armed(overlay.PeerID(id)) {
			t.Fatalf("peer %d still armed in quiescence", id)
		}
	}
	if !s.visitQ.empty() {
		t.Fatalf("next-round walk queue has %d entries in quiescence", len(s.visitQ.q))
	}
	s.StepRound()
	if n := len(s.workers[0].actors); n != 0 {
		t.Fatalf("quiescent round produced %d actors", n)
	}
}

// TestStepRoundMatchesRun: driving the engine with StepRound must
// reproduce Run exactly (same rng stream, same result counters).
func TestStepRoundMatchesRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 120
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA := a.Run()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for b.StepRound() {
		steps++
	}
	if int64(steps) != cfg.Rounds {
		t.Fatalf("StepRound ran %d rounds, want %d", steps, cfg.Rounds)
	}
	resB, err := b.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resA.Deaths != resB.Deaths || resA.Cancels != resB.Cancels ||
		resA.FinalPlacements != resB.FinalPlacements || resA.FinalIncluded != resB.FinalIncluded {
		t.Fatalf("stepped run diverged: %+v vs %+v",
			[4]int64{resA.Deaths, resA.Cancels, int64(resA.FinalPlacements), int64(resA.FinalIncluded)},
			[4]int64{resB.Deaths, resB.Cancels, int64(resB.FinalPlacements), int64(resB.FinalIncluded)})
	}
}
