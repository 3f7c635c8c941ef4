package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// The engine's correctness claim is equivalence, not similarity: the
// probe-event digest — every churn event, repair, outage, loss, stall,
// cancel, shock, transfer, redundancy change and round-end, field for
// field, in emission order, plus the result counters — must be
// identical at every shard count S ∈ {1, 2, 3, 4, 8}, over the golden
// scenarios, a replayed trace, randomized configs and the partition's
// corner geometry. This file is that one matrix. Some of its tests come
// in pairs that split the shard set: TestShardEquivalence runs S ≤ 3 and
// TestWideShardEquivalence S = 4 and 8, and TestShardEdgeCases and
// TestPartitionEdgeCases share the partition's corner cases.

// requireShardEquivalence runs cfg at every given shard count and
// requires one digest throughout — the pinned one, when non-zero.
func requireShardEquivalence(t *testing.T, cfg Config, pinned uint64, shards ...int) {
	t.Helper()
	want := pinned
	for _, n := range shards {
		cfg.Shards = n
		got := digestRun(t, cfg)
		if want == 0 {
			want = got
		}
		if got != want {
			t.Errorf("S=%d digest = %#x, want %#x", n, got, want)
		}
	}
}

func TestShardEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		t.Run(sc.name, func(t *testing.T) { requireShardEquivalence(t, sc.cfg, sc.pinned, 1, 2, 3) })
	}
}

func TestWideShardEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		t.Run(sc.name, func(t *testing.T) { requireShardEquivalence(t, sc.cfg, sc.pinned, 4, 8) })
	}
}

// TestShardEquivalenceReplay: a trace recorded sharded equals one
// recorded on one shard, and replays to the pinned digest.
func TestShardEquivalenceReplay(t *testing.T) {
	one := replayScenario(t, func(c *Config) { c.Shards = 1 })
	four := replayScenario(t, func(c *Config) { c.Shards = 4 })
	if a, b := len(one.Replay.Events), len(four.Replay.Events); a != b {
		t.Fatalf("sharded recording produced %d events, one shard %d", b, a)
	}
	requireShardEquivalence(t, one, goldenReplay, 1, 2, 3)
}

// TestWideShardReplayEquivalence holds the replayed trace to its pinned
// digest at four and eight shards.
func TestWideShardReplayEquivalence(t *testing.T) {
	requireShardEquivalence(t, replayScenario(t, func(*Config) {}), goldenReplay, 4, 8)
}

// TestShardEquivalenceRandomizedConfigs is the testing/quick-style
// sweep: random seeds, population sizes, horizons and shard counts,
// each compared against its own S=1 reference digest. Parameters are
// drawn from a fixed-seed generator so a failure reproduces exactly.
func TestShardEquivalenceRandomizedConfigs(t *testing.T) {
	r := rng.New(0xC0FFEE)
	iters := 10
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		cfg := DefaultConfig()
		cfg.Seed = r.Uint64()
		cfg.TotalBlocks = 16
		cfg.DataBlocks = 8
		cfg.RepairThreshold = 10 + r.Intn(5)
		cfg.Quota = 48
		cfg.PoolSamplePerRound = 8 + r.Intn(32)
		cfg.AcceptHorizon = int64(24 + r.Intn(96))
		cfg.NumPeers = cfg.TotalBlocks + 1 + r.Intn(150)
		cfg.Rounds = int64(60 + r.Intn(180))
		if r.Bool(0.3) {
			cfg.Observers = PaperObservers()
		}
		if r.Bool(0.3) {
			cfg.AvailSpec = fmt.Sprintf("diurnal:%v", 0.3+0.5*r.Float64())
		}
		if r.Bool(0.5) {
			cfg.RedundancySpec = "adaptive:eval=" + []string{"6", "24"}[r.Intn(2)]
		}
		shards := 2 + r.Intn(8)
		name := fmt.Sprintf("i=%d/peers=%d/rounds=%d/shards=%d", i, cfg.NumPeers, cfg.Rounds, shards)
		t.Run(name, func(t *testing.T) { requireShardEquivalence(t, cfg, 0, 1, shards) })
	}
}

// abortProbe counts transfer aborts, the signature of a death (or
// session drop) racing a delivery within one round.
type abortProbe struct {
	BaseProbe
	aborts, completes int
}

func (p *abortProbe) ProbeEvents() EventSet {
	return EventTransferAbort | EventTransferComplete
}
func (p *abortProbe) OnTransferAbort(TransferEvent)    { p.aborts++ }
func (p *abortProbe) OnTransferComplete(TransferEvent) { p.completes++ }

// edgeCase is one boundary condition of the slot partition: a config
// whose digest must not depend on the shard count, the
// boundary-hostile shard counts to hold against S=1, and a check that a
// run really hits the condition.
type edgeCase struct {
	name   string
	shards []int
	cfg    func(t *testing.T) Config
	verify func(t *testing.T, cfg Config)
}

// killShocksOver returns digestConfig over metered links with a
// stochastic regional kill shock, so deaths race deliveries.
func killShocksOver(spec string, shock ShockSpec) func(*testing.T) Config {
	return func(t *testing.T) Config {
		cfg := bandwidthConfig(t, spec)
		cfg.Shocks = []ShockSpec{shock}
		return cfg
	}
}

// deathsRaceDeliveries asserts a run both aborts and completes
// transfers.
func deathsRaceDeliveries(t *testing.T, cfg Config) {
	cfg.Shards = 2
	probe := &abortProbe{}
	cfg.Probes = append(cfg.Probes, probe)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if probe.aborts == 0 || probe.completes == 0 {
		t.Fatalf("aborts=%d completes=%d; scenario does not race deaths against deliveries", probe.aborts, probe.completes)
	}
}

func runEdgeCases(t *testing.T, cases []edgeCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			requireShardEquivalence(t, cfg, 0, append([]int{1}, tc.shards...)...)
			if tc.verify != nil {
				tc.verify(t, cfg)
			}
		})
	}
}

func TestShardEdgeCases(t *testing.T) {
	runEdgeCases(t, []edgeCase{
		{
			// Shard count far above the slot count: most shards own
			// empty ranges and every phase must still cover [0, N).
			name:   "shards-exceed-slots",
			shards: []int{64, 1000},
			cfg: func(t *testing.T) Config {
				cfg := digestConfig()
				cfg.NumPeers = 40
				cfg.TotalBlocks = 16
				cfg.DataBlocks = 8
				cfg.RepairThreshold = 10
				cfg.Rounds = 200
				return cfg
			},
		},
		{
			// A repairing owner in the first shard placing blocks on
			// hosts in the last shard (and vice versa): placements and
			// quota accounting must not care about the boundary.
			name:   "cross-shard-repair-endpoints",
			shards: []int{2},
			cfg:    func(t *testing.T) Config { return digestConfig() },
			verify: func(t *testing.T, cfg Config) {
				cfg.Shards = 2
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				boundary := overlay.PeerID(cfg.NumPeers / 2)
				led := s.Ledger()
				var buf []overlay.PeerID
				lowHigh, highLow := 0, 0
				for id := 0; id < cfg.NumPeers; id++ {
					owner := overlay.PeerID(id)
					buf = led.Hosts(owner, buf[:0])
					for _, h := range buf {
						switch {
						case owner < boundary && h >= boundary:
							lowHigh++
						case owner >= boundary && h < boundary:
							highLow++
						}
					}
				}
				if lowHigh == 0 || highLow == 0 {
					t.Fatalf("no cross-shard placements (low->high %d, high->low %d); scenario does not exercise the boundary", lowHigh, highLow)
				}
			},
		},
		{
			// Same-round death-vs-delivery ordering across shards: under
			// bandwidth scheduling with kill shocks, a peer dying in the
			// churn walk must abort in-flight transfers before the
			// completion phase can land them, whichever shard either
			// endpoint lives in.
			name:   "cross-shard-death-vs-delivery",
			shards: []int{2, 8},
			cfg:    killShocksOver("dsl", ShockSpec{Name: "attrition", Rate: 0.05, Fraction: 0.3, Regions: 2, Kill: true}),
			verify: deathsRaceDeliveries,
		},
		{
			// A mass same-round flip wave: every shard's effect log holds
			// hundreds of session flips whose ledger writes, suspends and
			// watcher crossings must merge in slot order.
			name:   "mass-flip-wave",
			shards: []int{2, 5},
			cfg: func(t *testing.T) Config {
				cfg := digestConfig()
				cfg.NumPeers = 1200
				cfg.Rounds = 200
				cfg.Shocks = []ShockSpec{
					{Name: "blackout", Round: 60, Fraction: 1.0, Outage: 24},
					{Name: "second-wave", Round: 130, Fraction: 0.9, Outage: 12},
				}
				return cfg
			},
		},
	})
}

func TestPartitionEdgeCases(t *testing.T) {
	runEdgeCases(t, []edgeCase{
		{
			name:   "shards-over-slots",
			shards: []int{64, 256},
			cfg: func(t *testing.T) Config {
				cfg := digestConfig()
				cfg.NumPeers = 40
				cfg.Rounds = 300
				return cfg
			},
		},
		{
			// Tight quota: owners must place across the S=2 boundary
			// constantly, and lose quota races at apply time.
			name:   "boundary-straddle",
			shards: []int{2, 4},
			cfg: func(t *testing.T) Config {
				cfg := digestConfig()
				cfg.NumPeers = 64
				cfg.Quota = 48
				cfg.Rounds = 400
				return cfg
			},
		},
		{
			name:   "death-vs-delivery",
			shards: []int{2, 8},
			cfg:    killShocksOver("skewed", ShockSpec{Name: "regional-kill", Rate: 0.02, Fraction: 0.3, Regions: 4, Kill: true}),
			verify: deathsRaceDeliveries,
		},
	})
}

// TestShardRangePartition: the shard ranges must partition [0,
// NumPeers) exactly — contiguous, disjoint, covering — including when
// the shard count exceeds the slot count.
func TestShardRangePartition(t *testing.T) {
	for _, tc := range []struct{ peers, shards int }{
		{300, 2}, {300, 3}, {300, 7}, {17, 16}, {17, 64}, {2, 9},
	} {
		s := &Simulation{cfg: Config{NumPeers: tc.peers}, workers: make([]worker, tc.shards)}
		next := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := s.shardRange(i)
			if lo != next || hi < lo || hi > tc.peers {
				t.Fatalf("peers=%d shards=%d: shard %d range [%d,%d), want start %d",
					tc.peers, tc.shards, i, lo, hi, next)
			}
			next = hi
		}
		if next != tc.peers {
			t.Fatalf("peers=%d shards=%d: ranges cover [0,%d), want [0,%d)", tc.peers, tc.shards, next, tc.peers)
		}
	}
}

// TestSlotStreamDerivation pins the randomness seam: one stream per
// population slot, derived from (seed, slotStreamBase + slot), disjoint
// from the redundancy stream.
func TestSlotStreamDerivation(t *testing.T) {
	cfg := digestConfig()
	cfg.Shards = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.streams) != cfg.NumPeers {
		t.Fatalf("%d slot streams, want %d", len(s.streams), cfg.NumPeers)
	}
	for _, slot := range []int{0, 1, cfg.NumPeers / 2, cfg.NumPeers - 1} {
		want := rng.New(rng.Derive(cfg.Seed, slotStreamBase+uint64(slot))).Uint64()
		if got := s.streams[slot].Uint64(); got != want {
			t.Errorf("slot %d stream not derived from (seed, base+%d)", slot, slot)
		}
	}
	if redunStreamIndex >= slotStreamBase && redunStreamIndex-slotStreamBase < 1<<32 {
		t.Fatalf("slot stream index %d collides with the redundancy stream", redunStreamIndex-slotStreamBase)
	}
}

// TestWalkConfigGuards: the vestigial Walk field accepts "" and "v3"
// and nothing else.
func TestWalkConfigGuards(t *testing.T) {
	base := digestConfig()
	for _, walk := range []string{"", "v3"} {
		ok := base
		ok.Walk = walk
		if _, err := ok.Validate(); err != nil {
			t.Errorf("Walk=%q rejected: %v", walk, err)
		}
	}
	for _, walk := range []string{"v1", "v2"} {
		bad := base
		bad.Walk = walk
		if _, err := bad.Validate(); err == nil || !strings.Contains(err.Error(), walk) || !strings.Contains(err.Error(), "PR 21") {
			t.Errorf("Walk=%q error = %v, want one naming the value and the collapse", walk, err)
		}
	}
}

// concurrentRuns is the race detector's food: several simulations at
// different shard counts run concurrently in one process — each
// internally fanning the walk and the plan out per shard, merging
// effect logs, sharing one pool-buffer cache — and every run must
// produce the S=1 digest.
func concurrentRuns(t *testing.T, peers int) {
	cfg := digestConfig()
	cfg.NumPeers = peers
	cfg.Rounds = 200
	cfg.Shocks = []ShockSpec{
		{Name: "blackout", Round: 60, Fraction: 1.0, Outage: 24},
	}
	ref := cfg
	ref.Shards = 1
	want := digestRun(t, ref)

	const runs = 8
	digests := make([]uint64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := cfg
			run.Shards = 2 + i%7 // S in [2, 8]
			d := newDigestProbe()
			run.Probes = append(run.Probes, d)
			s, err := New(run)
			if err != nil {
				errs[i] = err
				return
			}
			res := s.Run()
			d.mix(res.Deaths, res.Cancels, int64(res.FinalPlacements), int64(res.FinalIncluded))
			digests[i] = d.h.Sum64()
		}(i)
	}
	wg.Wait()
	for i, got := range digests {
		if errs[i] != nil {
			t.Errorf("concurrent run %d: %v", i, errs[i])
			continue
		}
		if got != want {
			t.Errorf("concurrent run %d (S=%d) digest = %#x, want %#x", i, 2+i%7, got, want)
		}
	}
}

func TestShardedConcurrentRuns(t *testing.T) { concurrentRuns(t, 1200) }
func TestConcurrentSmallRuns(t *testing.T)   { concurrentRuns(t, 600) }

// TestPhaseTimesKeepDigest: phase accounting fills Result.Phases
// without perturbing the digest.
func TestPhaseTimesKeepDigest(t *testing.T) {
	cfg := digestConfig()
	cfg.NumPeers = 64
	cfg.Rounds = 100
	plain := digestRun(t, cfg)

	timed := cfg
	timed.PhaseTimes = true
	if got := digestRun(t, timed); got != plain {
		t.Errorf("PhaseTimes changed the digest: %#x vs %#x", got, plain)
	}

	s, err := New(timed)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Phases == nil {
		t.Fatal("Result.Phases nil with PhaseTimes set")
	}
	total := res.Phases.Walk + res.Phases.Merge + res.Phases.Maintenance +
		res.Phases.TransferDrain + res.Phases.Evaluation
	if total <= 0 {
		t.Errorf("phase breakdown sums to %v, want > 0", total)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2 := s2.Run(); res2.Phases != nil {
		t.Error("Result.Phases non-nil without PhaseTimes")
	}
}
