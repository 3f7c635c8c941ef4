package sim

import (
	"fmt"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/overlay"
)

// TestLedgerConsistencyMidRun verifies the full ledger invariants while
// the simulation is churning, not only at the end: after every round,
// at one shard and at three, the ledger's indexes and counters match a
// recount and the armed set holds every population slot that wants a
// maintenance step. The merge fires a visibility crossing once per net
// crossing of a committed flip batch, so an owner that dips below k′
// and recovers inside one merge is not armed; that is sound only while
// the second invariant holds.
func TestLedgerConsistencyMidRun(t *testing.T) {
	small := smallConfig()
	small.Rounds = 600
	type scenario struct {
		name string
		cfg  Config
	}
	cases := []scenario{{"small", small}}
	for _, sc := range goldenScenarios(t) {
		switch sc.name {
		case "bandwidth", "shock", "adaptive":
			cases = append(cases, scenario{sc.name, sc.cfg})
		}
	}
	cases = append(cases, scenario{"replay", replayScenario(t, func(*Config) {})})
	for _, c := range cases {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/S=%d", c.name, shards), func(t *testing.T) {
				cfg := c.cfg
				cfg.Shards = shards
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rounds := 0
				for s.StepRound() {
					if err := s.Ledger().CheckConsistency(); err != nil {
						t.Fatalf("round %d: %v", s.Round(), err)
					}
					for id := range cfg.NumPeers {
						if pid := overlay.PeerID(id); s.maint.WantsStep(pid) && !s.maint.Armed(pid) {
							t.Fatalf("round %d: slot %d wants a step but is not armed", s.Round(), id)
						}
					}
					rounds++
				}
				if int64(rounds) != cfg.Rounds {
					t.Fatalf("checked %d rounds, want %d", rounds, cfg.Rounds)
				}
			})
		}
	}
}

// TestUploadBudgetStretchesEpisodes: with a tiny upload budget the same
// repairs take more rounds but the archive still converges to full.
func TestUploadBudgetStretchesEpisodes(t *testing.T) {
	base := smallConfig()
	base.Rounds = 400
	base.Profiles = mustProfiles(t)
	fast, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	resFast := fast.Run()

	slow := base
	slow.UploadBudgetPerRound = 1
	s, err := New(slow)
	if err != nil {
		t.Fatal(err)
	}
	resSlow := s.Run()
	// Both must eventually include everyone (16-block archives, 1/round
	// budget, 400 rounds is plenty).
	if resFast.FinalIncluded != base.NumPeers || resSlow.FinalIncluded != base.NumPeers {
		t.Fatalf("included fast=%d slow=%d, want %d",
			resFast.FinalIncluded, resSlow.FinalIncluded, base.NumPeers)
	}
}

func mustProfiles(t *testing.T) *churn.ProfileSet {
	t.Helper()
	ps, err := churn.NewProfileSet([]churn.Profile{
		{Name: "steady", Proportion: 1, Availability: 0.9, Lifetime: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestProfileReplacementPolicy: a departed peer's replacement inherits
// its profile, so the profile mix stays exactly stationary. Immortal
// slots never die and brief ones are only ever replaced by brief ones:
// the immortal count at the end is the count sampled at t=0.
func TestProfileReplacementPolicy(t *testing.T) {
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "immortal", Proportion: 0.5, Availability: 0.9, Lifetime: nil},
		{Name: "brief", Proportion: 0.5, Availability: 0.7,
			Lifetime: mustUniform(t, 30, 90)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.NumPeers = 400
	cfg.Rounds = 2000
	cfg.TotalBlocks = 8
	cfg.DataBlocks = 4
	cfg.RepairThreshold = 5
	cfg.Quota = 24
	cfg.Profiles = profiles
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	immortals := func() (n int) {
		for i := range s.peers {
			if s.peers[i].death == never {
				n++
			}
		}
		return n
	}
	start := immortals()
	res := s.Run()
	if res.Deaths == 0 {
		t.Fatal("no brief peer died in 2000 rounds of 30-90-round lifetimes")
	}
	// Half the slots are immortal as sampled at t=0, within binomial
	// noise, and replacement keeps exactly that many.
	if start < 160 || start > 240 {
		t.Fatalf("immortals at t=0 = %d of 400, want ~200", start)
	}
	if end := immortals(); end != start {
		t.Fatalf("immortals drifted from %d to %d under like-for-like replacement", start, end)
	}
}

// TestOutageVsHardLossAccounting: outages never undercount hard losses,
// and hard losses imply a preceding outage in the same data.
func TestOutageVsHardLossAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 6 * churn.Week
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "flaky", Proportion: 0.8, Availability: 0.35,
			Lifetime: mustUniform(t, churn.Week, 3*churn.Week)},
		{Name: "solid", Proportion: 0.2, Availability: 0.95, Lifetime: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profiles = profiles
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	outages := res.Collector.TotalLosses()
	hard := res.Collector.TotalHardLosses()
	if outages == 0 {
		t.Fatal("a mostly-flaky population produced no decode outages")
	}
	if hard > outages {
		t.Fatalf("hard losses (%d) exceed outages (%d)", hard, outages)
	}
}

// TestObserverSlotsAreNotCandidates: no regular peer may ever place a
// block on an observer slot.
func TestObserverSlotsAreNotCandidates(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 300
	cfg.Observers = PaperObservers()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	led := s.Ledger()
	for i := range cfg.Observers {
		slot := overlay.PeerID(cfg.NumPeers + i)
		owners := led.Owners(slot, nil)
		for _, o := range owners {
			if int(o) < cfg.NumPeers {
				t.Fatalf("regular peer %d stored a block on observer slot %d", o, slot)
			}
		}
	}
}

// TestQuotaNeverExceeded: the metered count respects the quota for all
// peers throughout a churny run.
func TestQuotaNeverExceeded(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 500
	cfg.Quota = 20 // tight: 120 peers x 20 = 2400 slots vs 120 x 16 = 1920 demand
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.StepRound() {
		if s.Round()%100 != 0 {
			continue
		}
		led := s.Ledger()
		for id := 0; id < cfg.NumPeers; id++ {
			if led.MeteredHosted(overlay.PeerID(id)) > int(cfg.Quota) {
				t.Fatalf("round %d: peer %d over quota", s.Round(), id)
			}
		}
	}
}

// TestLossSeriesMonotone: figure 4's cumulative series never decreases.
func TestLossSeriesMonotone(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 2000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		series := res.Collector.LossSeries(c)
		prev := 0.0
		for i := 0; i < series.Len(); i++ {
			_, y := series.At(i)
			if y < prev {
				t.Fatalf("category %v: cumulative series decreased at %d", c, i)
			}
			prev = y
		}
	}
}

// TestBlockConservation: every placement in the ledger belongs to a
// living owner and sits on a living host (generation-consistent).
func TestBlockConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 800
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	led := s.Ledger()
	total := 0
	for id := 0; id < cfg.NumPeers; id++ {
		total += led.Alive(overlay.PeerID(id))
	}
	if total != res.FinalPlacements {
		t.Fatalf("sum of alive (%d) != total placements (%d)", total, res.FinalPlacements)
	}
	// No owner can exceed n placed blocks.
	for id := 0; id < cfg.NumPeers; id++ {
		if a := led.Alive(overlay.PeerID(id)); a > cfg.TotalBlocks {
			t.Fatalf("peer %d holds %d > n placements", id, a)
		}
	}
}

// TestQuiescentRoundAllocatesNothing: once the initial uploads of a
// population of immortal, always-online peers have drained, a round on
// one shard allocates nothing. The walk re-installs the Maintainer's
// wake hook every round; a method value built there would allocate each
// time. (Sharded rounds that visit any slot start one goroutine per
// busy shard, and those allocate.)
func TestQuiescentRoundAllocatesNothing(t *testing.T) {
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "immortal", Proportion: 1, Availability: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Profiles = profiles
	cfg.AvailSpec = "always-online"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range 16 { // the initial uploads complete in a few rounds
		s.StepRound()
	}
	if allocs := testing.AllocsPerRun(100, func() { s.StepRound() }); allocs != 0 {
		t.Errorf("a warm quiescent round allocates %v times", allocs)
	}
}
