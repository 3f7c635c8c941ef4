package transfer

import (
	"testing"

	"p2pbackup/internal/overlay"
)

// schedOp is one scripted scheduler call at a round, made before that
// round's completions are drained.
type schedOp struct {
	round int64
	kind  string // "up", "restore", "suspend", "resume", "abort", "abortOwner"
	a, b  overlay.PeerID
}

// landing is one transfer PopDue handed out.
type landing struct {
	round, id int64
}

// TestPopDueOrder scripts enqueues, same-round suspend and resume,
// retries and aborts on a 1-block-per-round uplink and a 2-block
// downlink, drains PopDue every round and requires exactly the live
// transfers, in (CompleteAt, ID) order, each once per completion round
// and none before it.
func TestPopDueOrder(t *testing.T) {
	cases := []struct {
		name  string
		ops   []schedOp
		retry map[int64]int // transfer id -> times PopDue's caller retries it
		want  []landing
	}{{
		name: "same-round completions land in id order",
		ops:  []schedOp{{0, "up", 0, 1}, {0, "up", 2, 3}, {0, "up", 0, 2}},
		want: []landing{{1, 0}, {1, 1}, {2, 2}},
	}, {
		name: "suspend and resume in the same round land once",
		ops:  []schedOp{{0, "up", 0, 1}, {0, "up", 0, 2}, {0, "suspend", 0, 0}, {0, "resume", 0, 0}},
		want: []landing{{1, 0}, {2, 1}},
	}, {
		name: "a suspended host holds the transfer until it resumes",
		ops:  []schedOp{{0, "up", 0, 1}, {0, "suspend", 1, 0}, {3, "resume", 1, 0}},
		want: []landing{{4, 0}},
	}, {
		name:  "a retried restore lands once per round it is due",
		ops:   []schedOp{{0, "restore", 0, 0}},
		retry: map[int64]int{0: 2},
		want:  []landing{{2, 0}, {3, 0}, {4, 0}},
	}, {
		name: "an aborted transfer never lands",
		ops:  []schedOp{{0, "up", 0, 1}, {0, "up", 2, 3}, {0, "up", 0, 3}, {1, "abort", 3, 0}},
		want: []landing{{1, 0}},
	}, {
		name: "an owner reset leaves hosted transfers",
		ops:  []schedOp{{0, "up", 0, 1}, {0, "restore", 0, 0}, {0, "up", 2, 0}, {0, "abortOwner", 0, 0}},
		want: []landing{{1, 2}},
	}, {
		name: "interleaved",
		ops: []schedOp{
			{0, "up", 0, 1}, {0, "up", 0, 2}, {0, "suspend", 0, 0}, {0, "up", 3, 1},
			{1, "restore", 3, 0}, {2, "resume", 0, 0},
		},
		retry: map[int64]int{3: 1},
		want:  []landing{{1, 2}, {3, 0}, {3, 3}, {4, 1}, {4, 3}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 1, Down: 2}}}
			sched, tab := newTestSched(t, p, 4)
			offline := map[overlay.PeerID]bool{}
			online := func(id overlay.PeerID) bool { return !offline[id] }
			retries := map[int64]int{}
			for id, n := range tc.retry {
				retries[id] = n
			}
			ops := tc.ops
			var got []landing
			for round := int64(0); round <= 20; round++ {
				for ; len(ops) > 0 && ops[0].round == round; ops = ops[1:] {
					op := ops[0]
					switch op.kind {
					case "up":
						sched.EnqueueUpload(round, tab.Ref(op.a), tab.Ref(op.b))
					case "restore":
						sched.EnqueueRestore(round, tab.Ref(op.a), 4)
					case "suspend":
						offline[op.a] = true
						sched.SuspendPeer(op.a, round)
					case "resume":
						offline[op.a] = false
						sched.ResumePeer(op.a, round, online)
					case "abort":
						sched.AbortPeer(op.a)
					case "abortOwner":
						sched.AbortOwner(op.a)
					default:
						t.Fatalf("bad op %q", op.kind)
					}
				}
				for tr := sched.PopDue(round); tr != nil; tr = sched.PopDue(round) {
					if tr.CompleteAt != round {
						t.Fatalf("round %d: PopDue returned transfer %d due at %d", round, tr.ID, tr.CompleteAt)
					}
					got = append(got, landing{round, tr.ID})
					if retries[tr.ID] > 0 {
						retries[tr.ID]--
						sched.Retry(tr, round)
					} else {
						sched.Complete(tr)
					}
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("landed %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("landed %v, want %v", got, tc.want)
				}
			}
			if len(sched.xfers) != 0 {
				t.Errorf("%d transfers still registered after every landing", len(sched.xfers))
			}
		})
	}
}

// TestOneRestorePerOwner: a second restore for an owner is refused
// (and takes no id) until the first completes or is aborted; another
// owner's restore and uploads hosted by the owner do not count.
func TestOneRestorePerOwner(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 1, Down: 2}}}
	sched, tab := newTestSched(t, p, 3)
	sched.EnqueueUpload(0, tab.Ref(1), tab.Ref(0))
	first := sched.EnqueueRestore(0, tab.Ref(0), 4)
	if first == nil {
		t.Fatal("first restore refused")
	}
	if again := sched.EnqueueRestore(0, tab.Ref(0), 4); again != nil {
		t.Fatalf("second restore for owner 0 accepted as transfer %d", again.ID)
	}
	other := sched.EnqueueRestore(0, tab.Ref(1), 4)
	if other == nil || other.ID != first.ID+1 {
		t.Fatalf("owner 1's restore = %v, want id %d", other, first.ID+1)
	}

	for round := int64(0); round <= first.CompleteAt; round++ {
		for tr := sched.PopDue(round); tr != nil; tr = sched.PopDue(round) {
			sched.Complete(tr)
		}
	}
	if _, ok := sched.xfers[first.ID]; ok {
		t.Fatal("restore not landed by its completion round")
	}
	after := sched.EnqueueRestore(first.CompleteAt, tab.Ref(0), 4)
	if after == nil {
		t.Fatal("restore refused after the owner's last one completed")
	}

	sched.AbortPeer(0)
	if sched.EnqueueRestore(5, tab.Ref(0), 4) == nil {
		t.Fatal("restore refused after the owner's last one was aborted")
	}
	sched.AbortOwner(0)
	if sched.EnqueueRestore(5, tab.Ref(0), 4) == nil {
		t.Fatal("restore refused after the owner's archive was reset")
	}
}
