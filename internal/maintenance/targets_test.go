package maintenance

import (
	"testing"

	"p2pbackup/internal/overlay"
)

// TestPerArchiveTargets: an archive with its own target and threshold
// is uploaded to and repaired at them, and a slot past the per-archive
// slices (an observer) keeps the global n and k'.
func TestPerArchiveTargets(t *testing.T) {
	params := Params{TotalBlocks: 10, DataBlocks: 4, RepairThreshold: 7, PoolSamplePerRound: 64}
	m, led, _, r := harness(t, 40, params)
	// Slot 0 triggers at 5 rather than 7; slot 1 holds 6 blocks rather
	// than 10; slot 2 lies past the slices.
	m.SetTargets([]int32{10, 6}, []int32{5, 5})

	t.Run("own threshold", func(t *testing.T) {
		for _, id := range []overlay.PeerID{0, 2} {
			completeInitial(t, m, r, id)
		}
		// Four hosts go offline: visible 6 sits under the global k' but not
		// under slot 0's own threshold.
		for _, id := range []overlay.PeerID{0, 2} {
			for _, h := range led.Hosts(id, nil)[:4] {
				led.SetOnline(h, false)
			}
		}
		if led.Visible(0) != 6 || led.Visible(2) != 6 {
			t.Fatalf("visible = %d, %d, want 6, 6", led.Visible(0), led.Visible(2))
		}
		if res := m.Step(r, 0); res.Outcome != OutcomeNone || m.Repairing(0) {
			t.Fatalf("slot 0 at visible 6 >= its threshold 5: outcome %v, repairing %v", res.Outcome, m.Repairing(0))
		}
		if res := m.Step(r, 2); !m.Repairing(2) && res.Outcome != OutcomeRepaired {
			t.Fatalf("slot 2 at visible 6 < the global k' 7 did not trigger: %v", res.Outcome)
		}
		// Two more of slot 0's hosts leave: visible 4 < 5 triggers, and
		// the repair refills to the target.
		for _, h := range led.Hosts(0, nil)[4:6] {
			led.SetOnline(h, false)
		}
		var res StepResult
		for i := 0; i < 10 && res.Outcome != OutcomeRepaired; i++ {
			res = m.Step(r, 0)
		}
		if res.Outcome != OutcomeRepaired || led.Alive(0) != 10 || led.Visible(0) != 10 {
			t.Fatalf("slot 0 repair: %v, alive/visible %d/%d, want repaired at 10/10", res.Outcome, led.Alive(0), led.Visible(0))
		}
	})

	t.Run("own target", func(t *testing.T) {
		var res StepResult
		for i := 0; i < 10 && res.Outcome != OutcomeInitialDone; i++ {
			res = m.Step(r, 1)
		}
		if res.Outcome != OutcomeInitialDone || res.Uploaded != 6 || led.Alive(1) != 6 {
			t.Fatalf("slot 1 upload: %v with %d uploaded, alive %d, want done at 6", res.Outcome, res.Uploaded, led.Alive(1))
		}
		if res := m.Step(r, 1); res.Outcome != OutcomeNone || m.Repairing(1) {
			t.Fatalf("slot 1 complete at its target: outcome %v, repairing %v", res.Outcome, m.Repairing(1))
		}
	})

	t.Run("observer keeps the global shape", func(t *testing.T) {
		id := overlay.PeerID(3)
		var res StepResult
		for i := 0; i < 10 && res.Outcome != OutcomeInitialDone; i++ {
			res = m.Step(r, id)
		}
		if res.Outcome != OutcomeInitialDone || res.Uploaded != 10 || led.Alive(id) != 10 {
			t.Fatalf("slot 3 upload: %v with %d uploaded, alive %d, want done at the global 10", res.Outcome, res.Uploaded, led.Alive(id))
		}
		if err := led.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShrinkArchive: a lowered target retires the surplus placements,
// offline hosts first (from the list's end), then the list's end, and a
// drop that takes the visible count under the threshold arms the slot
// through the ledger watcher.
func TestShrinkArchive(t *testing.T) {
	params := Params{TotalBlocks: 10, DataBlocks: 4, RepairThreshold: 7, PoolSamplePerRound: 64}
	for _, tc := range []struct {
		name  string
		nt    int
		keep  []int // indexes into the pre-shrink host list, in list order
		armed bool
	}{
		// One surplus block: the offline host nearest the end goes, and
		// the other offline host stays.
		{name: "one surplus", nt: 9, keep: []int{0, 1, 2, 3, 4, 9, 6, 7, 8}},
		// Four: both offline hosts, then the list's end; visible 8 -> 6
		// crosses the threshold 7.
		{name: "four surplus", nt: 6, keep: []int{0, 1, 8, 3, 4, 9}, armed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, led, _, r := harness(t, 40, params)
			id := overlay.PeerID(0)
			completeInitial(t, m, r, id)
			hosts := led.Hosts(id, nil)
			led.SetOnline(hosts[2], false)
			led.SetOnline(hosts[5], false)
			m.Disarm(id)
			m.ShrinkArchive(id, tc.nt)
			got := led.Hosts(id, nil)
			if len(got) != len(tc.keep) {
				t.Fatalf("alive %d after shrinking to %d, want %d", len(got), tc.nt, len(tc.keep))
			}
			for i, k := range tc.keep {
				if got[i] != hosts[k] {
					t.Fatalf("placements %v after shrink, want hosts at %v of %v", got, tc.keep, hosts)
				}
			}
			if m.Armed(id) != tc.armed {
				t.Errorf("armed = %v after shrink to visible %d, want %v", m.Armed(id), led.Visible(id), tc.armed)
			}
			if err := led.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
