package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/transfer"
)

// TestPeerSize keeps the engine-side slot record at one cache line.
func TestPeerSize(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 64 {
		t.Fatalf("sim.peer is %d bytes, want at most 64", got)
	}
}

// slotBudget is what one simulated peer may cost in live heap at the
// paper's parameters (n = 256, quota 384, 90-day histories) once the
// population has uploaded and the histories have filled a window:
// ARCHITECTURE.md's "Memory per slot" table adds up to about 7.6 KiB.
const slotBudget = 10 << 10

// TestSlotFootprint runs the default configuration at a few thousand
// peers through the initial upload and a whole monitoring window of
// sessions, and holds the live heap per slot to slotBudget. Per-slot
// memory must follow what a slot holds — placements, transitions inside
// the window, a candidate pool while an episode is in flight — not the
// worst case of what it might: before that was so, the same measurement
// read 23 KiB.
func TestSlotFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3000 peers for a 90-day window")
	}
	cfg := DefaultConfig()
	cfg.NumPeers = 3000
	cfg.Rounds = cfg.AcceptHorizon + 100
	cfg.Seed = 5

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(s) // the heap is read while the simulation is live
	for s.StepRound() {
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	slots := cfg.NumPeers
	perSlot := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(slots)
	t.Logf("%d B of live heap per slot after %d rounds (budget %d)", perSlot, cfg.Rounds, slotBudget)
	if perSlot <= slotBudget {
		return
	}

	// Over budget: say where the bytes are.
	var transitions, pooled, episodes int
	for id := 0; id < slots; id++ {
		transitions += s.hist[id].Transitions()
		if c := s.maint.PoolCap(overlay.PeerID(id)); c > 0 {
			pooled += c
			episodes++
		}
	}
	per := func(total int) float64 { return float64(total) / float64(slots) }
	t.Errorf("live heap per slot is %d B, budget %d B", perSlot, slotBudget)
	t.Logf("  ledger reservation        %8.0f B  (%d placements + %d host entries, 8 B each)",
		float64(8*(cfg.TotalBlocks+int(cfg.Quota))), cfg.TotalBlocks, cfg.Quota)
	t.Logf("  placements in use         %8.0f B  (%d placed, both directions)",
		per(16*s.led.TotalPlacements()), s.led.TotalPlacements())
	t.Logf("  history transitions       %8.0f B  (%d stored, 8 B each; rings are the next power of four from 16)",
		per(8*transitions), transitions)
	t.Logf("  history headers           %8d B", unsafe.Sizeof(monitor.IntervalHistory{}))
	t.Logf("  candidate pools           %8.0f B  (%d episodes in flight, 24 B per entry of capacity)",
		per(24*pooled), episodes)
	t.Logf("  peer record, timer, score memo %3d B",
		unsafe.Sizeof(peer{})+unsafe.Sizeof(s.sched[0])+16)
}

// TestPoolBuffersFollowEpisodesV3 runs v3 populations at Shards = 4 and
// checks after every round that a slot holds a candidate-pool buffer
// only inside an episode and only while its pool holds candidates.
// Buffers are taken and returned inside concurrent PlanSteps, slots
// reset inside the shard-parallel walk, and under bandwidth scheduling
// episodes end in the sequential transfer drain: all of them go through
// the Maintainer's one buffer cache, which is what the race detector is
// here to watch.
func TestPoolBuffersFollowEpisodesV3(t *testing.T) {
	bw, err := transfer.Parse("skewed")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		bandwidth *transfer.Params
	}{{"instant", nil}, {"bandwidth", bw}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := digestConfig()
			cfg.NumPeers = 1200
			cfg.Rounds = 160
			cfg.Walk = WalkV3
			cfg.Shards = 4
			cfg.Bandwidth = tc.bandwidth
			cfg.Shocks = []ShockSpec{
				{Name: "blackout", Round: 60, Fraction: 0.6, Outage: 24},
				{Name: "regional-kill", Rate: 0.02, Fraction: 0.3, Regions: 4, Kill: true},
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			slots := cfg.NumPeers + len(cfg.Observers)
			held := 0
			for s.StepRound() {
				for id := overlay.PeerID(0); int(id) < slots; id++ {
					c := s.maint.PoolCap(id)
					if c > 0 && (!s.maint.Repairing(id) || s.maint.PoolSize(id) == 0) {
						t.Fatalf("round %d: slot %d holds a pool buffer of %d with %d candidates pooled (in an episode: %v)",
							s.round-1, id, c, s.maint.PoolSize(id), s.maint.Repairing(id))
					}
					if c > 0 {
						held++
					}
				}
			}
			if held == 0 {
				t.Fatal("no slot ever held a pool buffer: the run exercised nothing")
			}
		})
	}
}
