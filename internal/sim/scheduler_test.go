package sim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

func TestVisitQueueOrderingAndDedupe(t *testing.T) {
	q := newVisitQueue(64)
	in := []int32{9, 3, 41, 3, 0, 9, 27, 0}
	for _, id := range in {
		q.push(id)
	}
	got := q.drain(nil)
	want := []int32{0, 3, 9, 27, 41}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v (ascending, deduped)", got, want)
		}
	}
	if q.n != 0 {
		t.Fatal("queue must be empty after a drain")
	}
	// After draining, slots can be queued again.
	q.push(3)
	if q.n == 0 {
		t.Fatal("queue must accept a slot again after draining it")
	}
	if got := q.drain(nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("drained %v after re-queueing slot 3, want [3]", got)
	}
}

// heapQueue is the visit queue as it stood before the bitset: a binary
// min-heap of slot ids with a membership bitmap, verbatim. It is the
// oracle TestVisitQueueMatchesHeap holds the bitset to: the walk set,
// its shard cut and the merge order all follow the order a round's
// queue is drained in, so every trajectory depends on the two agreeing.
type heapQueue struct {
	q  []int32
	in []bool
}

func newHeapQueue(n int) *heapQueue {
	return &heapQueue{in: make([]bool, n)}
}

// push enqueues a slot; re-pushing a queued slot is a no-op.
func (v *heapQueue) push(id int32) {
	if v.in[id] {
		return
	}
	v.in[id] = true
	v.q = append(v.q, id)
	i := len(v.q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if v.q[p] <= v.q[i] {
			break
		}
		v.q[p], v.q[i] = v.q[i], v.q[p]
		i = p
	}
}

// pop removes and returns the smallest queued slot id. The caller must
// check empty first.
func (v *heapQueue) pop() int32 {
	id := v.q[0]
	last := len(v.q) - 1
	v.q[0] = v.q[last]
	v.q = v.q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && v.q[l] < v.q[small] {
			small = l
		}
		if r < last && v.q[r] < v.q[small] {
			small = r
		}
		if small == i {
			break
		}
		v.q[i], v.q[small] = v.q[small], v.q[i]
		i = small
	}
	v.in[id] = false
	return id
}

// empty reports whether the queue has no pending visits.
func (v *heapQueue) empty() bool { return len(v.q) == 0 }

// TestVisitQueueMatchesHeap pushes the same seeded random request
// sequences into the bitset and the heap it replaced, round after round,
// and requires every drain to give the heap's pops exactly, at
// populations on both sides of the 64-slot word boundary. Rounds mix
// sparse, dense and empty request sets, repeats included.
func TestVisitQueueMatchesHeap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := rng.New(uint64(n))
			bq, hq := newVisitQueue(n), newHeapQueue(n)
			var got []int32
			for round := 0; round < 200; round++ {
				var pushes int
				switch round % 4 {
				case 0: // sparse
					pushes = r.Intn(4)
				case 1: // dense, with repeats
					pushes = 2 * n
				case 2: // none
				default:
					pushes = r.Intn(n + 1)
				}
				for i := 0; i < pushes; i++ {
					id := int32(r.Intn(n))
					bq.push(id)
					hq.push(id)
				}
				if (bq.n == 0) != hq.empty() {
					t.Fatalf("round %d: bitset empty=%v, heap empty=%v", round, bq.n == 0, hq.empty())
				}
				var want []int32
				for !hq.empty() {
					want = append(want, hq.pop())
				}
				got = bq.drain(got[:0])
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: bitset drained %v, heap popped %v", round, got, want)
				}
				if bq.n != 0 {
					t.Fatalf("round %d: bitset not empty after its drain", round)
				}
			}
		})
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
	cfg.AvailSpec = "always-online"
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
	if s.visitQ.n != 0 {
		t.Fatalf("next-round walk queue has %d entries in quiescence", s.visitQ.n)
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
