package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/dist"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/selection"
)

// smallConfig is a fast-running configuration preserving the paper's
// structure (erasure-coded archives, profiles, acceptance rule).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 120
	cfg.Rounds = 400
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48 // short horizon so ages matter quickly
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if _, err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("paper defaults must validate: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumPeers = 1 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.DataBlocks = 0 },
		func(c *Config) { c.TotalBlocks = c.DataBlocks },
		func(c *Config) { c.NumPeers = c.TotalBlocks },
		func(c *Config) { c.RepairThreshold = c.DataBlocks - 1 },
		func(c *Config) { c.RepairThreshold = c.TotalBlocks + 1 },
		func(c *Config) { c.Quota = 0 },
		func(c *Config) { c.AcceptHorizon = 0 },
		func(c *Config) { c.PoolSamplePerRound = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Warmup = c.Rounds },
		func(c *Config) { c.Observers = []ObserverSpec{{Name: "x", Age: -1}} },
		func(c *Config) { c.Quota = 10 }, // demand 256 > capacity 10
	}
	for i, mod := range cases {
		cfg := smallConfig()
		mod(&cfg)
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestConfigValidatesAvailabilityModel: a diurnal amplitude outside
// [0,1] (found by FuzzWorkerRequest, from a worker request's diurnal
// sweep) is refused by Validate, not run with every swing clamped.
func TestConfigValidatesAvailabilityModel(t *testing.T) {
	for _, amp := range []float64{-1, 5, math.NaN()} {
		cfg := smallConfig()
		cfg.AvailSpec = fmt.Sprintf("diurnal:%v", amp)
		if _, err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "diurnal amplitude") {
			t.Errorf("amplitude %v: error %v, want one naming the diurnal amplitude", amp, err)
		}
	}
	cfg := smallConfig()
	cfg.AvailSpec = "diurnal:0.9"
	if _, err := cfg.Validate(); err != nil {
		t.Errorf("amplitude 0.9: %v", err)
	}
}

// TestConfigRejectsLedgerIndexOverflow: at 2^20 + 1 slots the ledger's
// entries keep 21 bits of peer id, which leaves a host 1024 entries and
// an owner 2048, and Validate turns away a config the ledger could not
// hold, naming the bound, before New allocates anything.
func TestConfigRejectsLedgerIndexOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 1<<20 - 4
	cfg.Observers = PaperObservers()
	cfg.Quota = 1019
	if _, err := cfg.Validate(); err != nil {
		t.Fatalf("quota 1019 + 5 observers at 2^20 + 1 slots: %v", err)
	}
	cfg.Quota = 1020
	if _, err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "1024") {
		t.Errorf("quota 1020 + 5 observers at 2^20 + 1 slots: error %v, want one naming the 1024-entry bound", err)
	}
	noObs := cfg
	noObs.Observers = nil // 2^20 - 4 slots: 20 id bits, 2048 entries a host
	if _, err := noObs.Validate(); err != nil {
		t.Errorf("quota 1020 without observers: %v", err)
	}
	cfg.TotalBlocks, cfg.Quota = 2049, 2049
	if _, err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "2048") {
		t.Errorf("n = 2049 at 2^20 + 1 slots: error %v, want one naming the 2048-entry bound", err)
	}
}

// TestLedgerIndexBoundMatchesLedger ties Validate's reading of the
// ledger's entry layout to the ledger: at 2^16 + 1 slots the largest
// quota Validate accepts, 16384, is what one host's entries can index.
func TestLedgerIndexBoundMatchesLedger(t *testing.T) {
	const slots, bound = 1<<16 + 1, 1 << 14
	cfg := DefaultConfig()
	cfg.NumPeers = slots
	cfg.Quota = bound
	if _, err := cfg.Validate(); err != nil {
		t.Fatalf("quota %d at %d slots: %v", bound, slots, err)
	}
	cfg.Quota++
	if _, err := cfg.Validate(); err == nil {
		t.Fatalf("quota %d at %d slots accepted", cfg.Quota, slots)
	}
	led := overlay.NewLedger(slots, 2*bound)
	for owner := overlay.PeerID(1); owner <= bound; owner++ {
		if err := led.Place(owner, 0); err != nil {
			t.Fatalf("block %d on one host: %v", owner, err)
		}
	}
	if err := led.Place(bound+1, 0); !errors.Is(err, overlay.ErrBadPlacement) {
		t.Fatalf("block %d on one host: %v, want overlay.ErrBadPlacement", bound+1, err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	// Pins the paper's simulation parameters (§3.1, §3.2).
	cfg := DefaultConfig()
	if cfg.NumPeers != 25000 {
		t.Errorf("NumPeers = %d, want 25000", cfg.NumPeers)
	}
	if cfg.Rounds != 50000 {
		t.Errorf("Rounds = %d, want 50000", cfg.Rounds)
	}
	if cfg.DataBlocks != 128 || cfg.TotalBlocks != 256 {
		t.Errorf("code shape %d/%d, want 128/256", cfg.DataBlocks, cfg.TotalBlocks)
	}
	if cfg.RepairThreshold != 148 {
		t.Errorf("threshold = %d, want 148", cfg.RepairThreshold)
	}
	if cfg.Quota != 384 {
		t.Errorf("quota = %d, want 384", cfg.Quota)
	}
	if cfg.AcceptHorizon != 90*churn.Day {
		t.Errorf("horizon = %d, want 90 days", cfg.AcceptHorizon)
	}
}

func TestPaperObservers(t *testing.T) {
	// Pins the paper's fixed-age observer table (§4.2.2).
	obs := PaperObservers()
	want := []struct {
		name string
		age  int64
	}{
		{"elder", 3 * churn.Month},
		{"senior", 1 * churn.Month},
		{"adult", 1 * churn.Week},
		{"teenager", 1 * churn.Day},
		{"baby", 1 * churn.Hour},
	}
	if len(obs) != len(want) {
		t.Fatalf("%d observers, want %d", len(obs), len(want))
	}
	for i, w := range want {
		if obs[i].Name != w.name || obs[i].Age != w.age {
			t.Errorf("observer %d = %+v, want %+v", i, obs[i], w)
		}
	}
}

func TestRunCompletesAndIsConsistent(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res == nil {
		t.Fatal("nil result")
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Fatalf("ledger inconsistent after run: %v", err)
	}
	// With moderate churn most peers should be included by the end.
	if res.FinalIncluded < s.cfg.NumPeers/2 {
		t.Fatalf("only %d of %d peers included", res.FinalIncluded, s.cfg.NumPeers)
	}
	// Peer-round accounting: total peer rounds == peers x rounds.
	var total int64
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		total += res.Collector.Counts(c).PeerRounds
	}
	want := int64(s.cfg.NumPeers) * s.cfg.Rounds
	if total != want {
		t.Fatalf("peer rounds = %d, want %d", total, want)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Observers = PaperObservers()
	run := func() *Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if a.Deaths != b.Deaths {
		t.Fatalf("deaths differ: %d vs %d", a.Deaths, b.Deaths)
	}
	if a.FinalPlacements != b.FinalPlacements {
		t.Fatalf("placements differ: %d vs %d", a.FinalPlacements, b.FinalPlacements)
	}
	if a.Collector.TotalRepairs() != b.Collector.TotalRepairs() {
		t.Fatalf("repairs differ: %d vs %d", a.Collector.TotalRepairs(), b.Collector.TotalRepairs())
	}
	if a.Collector.TotalLosses() != b.Collector.TotalLosses() {
		t.Fatalf("losses differ: %d vs %d", a.Collector.TotalLosses(), b.Collector.TotalLosses())
	}
	for i := 0; i < a.Observers.Len(); i++ {
		if a.Observers.Count(i) != b.Observers.Count(i) {
			t.Fatalf("observer %d differs: %d vs %d", i, a.Observers.Count(i), b.Observers.Count(i))
		}
	}
	// Different seeds diverge.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	s2, _ := New(cfg2)
	c := s2.Run()
	if c.Deaths == a.Deaths && c.Collector.TotalRepairs() == a.Collector.TotalRepairs() &&
		c.FinalPlacements == a.FinalPlacements {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestCategoryPopulationTracksAges(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 5 * churn.Month // long enough for promotions
	cfg.NumPeers = 60
	cfg.TotalBlocks = 8
	cfg.DataBlocks = 4
	cfg.RepairThreshold = 5
	cfg.Quota = 24
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	_ = res
	// After the run, recount categories from engine state.
	var want [metrics.NumCategories]int64
	for i := range s.peers {
		age := s.round - s.joins[i]
		want[metrics.CategoryOf(age)]++
	}
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		if got := s.CategoryPopulation(c); got != want[c] {
			t.Fatalf("category %v population = %d, recount %d", c, got, want[c])
		}
	}
	var sum int64
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		sum += s.CategoryPopulation(c)
	}
	if sum != int64(cfg.NumPeers) {
		t.Fatalf("category populations sum to %d, want %d", sum, cfg.NumPeers)
	}
}

func TestImmortalHighAvailabilityNeverLoses(t *testing.T) {
	// A population of always-online immortals must complete initial
	// backups and then never repair or lose anything.
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "immortal", Proportion: 1, Availability: 1, Lifetime: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Profiles = profiles
	cfg.AvailSpec = "always-online"
	cfg.Rounds = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deaths != 0 {
		t.Fatalf("immortals died: %d", res.Deaths)
	}
	if res.Collector.TotalLosses() != 0 {
		t.Fatalf("losses in a perfect system: %d", res.Collector.TotalLosses())
	}
	if res.Collector.TotalRepairs() != 0 {
		t.Fatalf("maintenance repairs in a perfect system: %d", res.Collector.TotalRepairs())
	}
	if res.FinalIncluded != cfg.NumPeers {
		t.Fatalf("included %d of %d", res.FinalIncluded, cfg.NumPeers)
	}
	// Every archive is full and visible.
	for id := 0; id < cfg.NumPeers; id++ {
		if s.Ledger().Visible(overlay.PeerID(id)) != cfg.TotalBlocks {
			t.Fatalf("peer %d visible = %d, want %d", id, s.Ledger().Visible(overlay.PeerID(id)), cfg.TotalBlocks)
		}
	}
}

func TestChurnCausesRepairsAndDeaths(t *testing.T) {
	// Short-lived, poorly available peers force maintenance activity.
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "fragile", Proportion: 0.5, Availability: 0.6,
			Lifetime: mustUniform(t, 2*churn.Week, 6*churn.Week)},
		{Name: "solid", Proportion: 0.5, Availability: 0.95, Lifetime: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Profiles = profiles
	cfg.Rounds = 8 * churn.Week
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deaths == 0 {
		t.Fatal("fragile peers never died")
	}
	if res.Collector.TotalRepairs() == 0 {
		t.Fatal("churn produced no repairs")
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func mustUniform(t *testing.T, lo, hi float64) dist.Sampler {
	t.Helper()
	u, err := dist.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestObserversRepairAndAgeOrdering(t *testing.T) {
	// Observers with very different ages: the baby must repair at least
	// as often as the elder (the paper's Figure 3 ordering), because
	// the elder recruits stable elders while the baby cannot.
	cfg := smallConfig()
	cfg.Rounds = 10 * churn.Week
	cfg.AcceptHorizon = 2 * churn.Week
	cfg.Observers = []ObserverSpec{
		{Name: "elder", Age: 2 * churn.Week},
		{Name: "baby", Age: 1},
	}
	// Churny population in which age is a strong signal: fragile peers
	// never survive past the horizon, so peers older than L are all
	// durable - exactly the regime the paper's heuristic exploits.
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "fast", Proportion: 0.7, Availability: 0.35,
			Lifetime: mustUniform(t, 3*churn.Day, 2*churn.Week)},
		{Name: "slow", Proportion: 0.3, Availability: 0.9, Lifetime: nil},
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
	elder, baby := res.Observers.Count(0), res.Observers.Count(1)
	if baby == 0 {
		t.Fatal("baby observer never repaired (including initial)")
	}
	if elder > baby {
		t.Fatalf("elder repaired more than baby: %d vs %d", elder, baby)
	}
	// Observer series exist.
	if res.Observers.Series(1).Len() == 0 {
		t.Fatal("observer series empty")
	}
	// Observers did not eat host quota.
	led := s.Ledger()
	for id := 0; id < cfg.NumPeers; id++ {
		if led.MeteredHosted(overlay.PeerID(id)) > led.Hosted(overlay.PeerID(id)) {
			t.Fatal("metered exceeds hosted")
		}
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 300
	cfg.RecordTrace = true
	// Short-lived profile to force joins/leaves.
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "brief", Proportion: 1, Availability: 0.7,
			Lifetime: mustUniform(t, 50, 150)},
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
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("trace not recorded")
	}
	// Every peer joined at round 0; deaths are recorded as leave+join.
	joins, leaves := 0, 0
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case churn.EvJoin:
			joins++
		case churn.EvLeave:
			leaves++
		}
	}
	if int64(leaves) != res.Deaths {
		t.Fatalf("trace leaves = %d, deaths = %d", leaves, res.Deaths)
	}
	if joins != cfg.NumPeers+leaves {
		t.Fatalf("trace joins = %d, want %d", joins, cfg.NumPeers+leaves)
	}
	// Lifetimes extracted from the trace are within the profile range.
	for _, l := range res.Trace.Lifetimes() {
		if l < 50 || l > 151 {
			t.Fatalf("trace lifetime %v outside profile range", l)
		}
	}
}

func TestStrategySwap(t *testing.T) {
	// The engine must run with every registered strategy spec, resolved
	// through Config.StrategySpec so window-query strategies see the
	// monitoring substrate. At three shards the planners call Score
	// concurrently: every spec's run must give its one-shard digest,
	// which holds each registered policy to the purity Score promises.
	for _, name := range selection.Names() {
		cfg := smallConfig()
		cfg.Rounds = 100
		cfg.NumPeers = 60
		cfg.TotalBlocks = 8
		cfg.DataBlocks = 4
		cfg.RepairThreshold = 5
		cfg.Quota = 24
		cfg.StrategySpec = name
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := s.Run()
		if res.FinalIncluded == 0 {
			t.Fatalf("%s: nobody included", name)
		}
		if err := s.Ledger().CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Shards = 1
		want := digestRun(t, cfg)
		cfg.Shards = 3
		if got := digestRun(t, cfg); got != want {
			t.Errorf("%s: digest %#x at three shards, %#x at one", name, got, want)
		}
	}
}

func TestConfigStrategyResolution(t *testing.T) {
	cfg := smallConfig()
	// Default: the paper's age policy at the config's horizon.
	v, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("age(L=%d)", cfg.AcceptHorizon)
	if v.policy == nil || v.policy.Name() != want {
		t.Fatalf("default policy = %v, want %s", v.policy, want)
	}
	// Spec path: explicit parameters win over the config horizon.
	cfg.StrategySpec = "age:L=7"
	if v, err = cfg.Validate(); err != nil || v.policy.Name() != "age(L=7)" {
		t.Fatalf("spec policy = %v (%v)", v.policy, err)
	}
	// Bad specs are rejected at validation time.
	cfg.StrategySpec = "age:bogus=1"
	if _, err = cfg.Validate(); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestMonitoredHistoriesTrackSessions(t *testing.T) {
	// Under the policy that reads them, the engine's per-slot
	// availability histories must agree with the oracle availability in
	// expectation: a (nearly) always-online profile must show ~1 uptime,
	// and the simEnv view must expose the history to strategies.
	cfg := smallConfig()
	cfg.Rounds = 400
	cfg.AcceptHorizon = 200
	cfg.StrategySpec = "monitored-availability"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	env := (*simEnv)(s)
	if env.Round() != cfg.Rounds {
		t.Fatalf("env round = %d, want %d", env.Round(), cfg.Rounds)
	}
	seen := 0
	for id := range s.peers {
		v := env.View(overlay.PeerID(id))
		if v.Observed.History == nil {
			t.Fatalf("peer %d has no monitoring history", id)
		}
		if age := env.Round() - env.Joins()[id]; age != v.Observed.Age {
			t.Fatalf("peer %d: age from env.Joins = %d, its view's age %d", id, age, v.Observed.Age)
		}
		up, ok := v.Observed.Uptime(s.round, cfg.AcceptHorizon)
		if !ok {
			t.Fatalf("peer %d: no uptime", id)
		}
		if up < 0 || up > 1 {
			t.Fatalf("peer %d: uptime %v outside [0,1]", id, up)
		}
		// Peers that joined at round 0 and never died have a full
		// window; their observed uptime must roughly match their true
		// availability.
		p := &s.peers[id]
		if s.joins[id] == 0 && p.avail >= 0.9 {
			seen++
			if up < 0.5 {
				t.Errorf("peer %d: avail %.2f but monitored uptime %.2f", id, p.avail, up)
			}
		}
	}
	if seen == 0 {
		t.Skip("no surviving high-availability peer from round 0")
	}
	// Observer views are steady full-uptime histories.
	cfg.Observers = []ObserverSpec{{Name: "elder", Age: 100}}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ov := (*simEnv)(s2).View(overlay.PeerID(cfg.NumPeers))
	if up, ok := ov.Observed.Uptime(50, 10); !ok || up != 1 {
		t.Fatalf("observer uptime = %v/%v, want 1", up, ok)
	}
	if ov.Observed.Age != 100 {
		t.Fatalf("observer age = %d, want 100", ov.Observed.Age)
	}
	if n := len((*simEnv)(s2).Joins()); n != cfg.NumPeers {
		t.Fatalf("env.Joins covers %d slots, want the %d candidates", n, cfg.NumPeers)
	}
}

// historyBound is the age policy behind the bare Policy interface: it
// drops its one optional declaration, IgnoresHistory, as a custom
// policy that declares nothing would.
type historyBound struct{ selection.Policy }

// TestHistoriesRecordedOnlyWhenRead: the engine keeps availability
// histories only when something reads them — a policy that does not
// declare IgnoresHistory, or adaptive redundancy's partner probe — and
// otherwise has no history storage and hands strategies no history.
// Keeping them or not moves no trajectory.
func TestHistoriesRecordedOnlyWhenRead(t *testing.T) {
	age := func() selection.Policy {
		pol, err := selection.ParseWith("age", selection.Defaults{Horizon: digestConfig().AcceptHorizon})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		kept   bool
	}{
		{"age, fixed redundancy", func(*Config) {}, false},
		{"monitored-availability", func(c *Config) { c.StrategySpec = "monitored-availability" }, true},
		{"age, adaptive redundancy", func(c *Config) { c.RedundancySpec = "adaptive" }, true},
		{"age without its declarations", func(c *Config) { c.policy = historyBound{age()} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := digestConfig()
			cfg.Rounds = 200
			tc.mutate(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			env := (*simEnv)(s)
			observer := overlay.PeerID(cfg.NumPeers)
			if !tc.kept {
				if s.hist != nil {
					t.Fatalf("%d histories allocated, none read", len(s.hist))
				}
				for _, id := range []overlay.PeerID{0, 7, observer} {
					if v := env.View(id); v.Observed.History != nil {
						t.Fatalf("slot %d: view carries a history (%T) nothing records", id, v.Observed.History)
					}
				}
				return
			}
			if len(s.hist) != cfg.NumPeers {
				t.Fatalf("%d histories for %d peers", len(s.hist), cfg.NumPeers)
			}
			transitions := 0
			for id := range s.hist {
				transitions += s.hist[id].Transitions()
				if v := env.View(overlay.PeerID(id)); v.Observed.History != &s.hist[id] {
					t.Fatalf("peer %d: view's history is not the slot's", id)
				}
			}
			if transitions < cfg.NumPeers {
				t.Fatalf("%d transitions recorded over %d peers and %d rounds", transitions, cfg.NumPeers, cfg.Rounds)
			}
			if up, ok := env.View(observer).Observed.Uptime(s.round, cfg.AcceptHorizon); !ok || up != 1 {
				t.Fatalf("observer uptime = %v/%v, want 1", up, ok)
			}
		})
	}
	// Recording consumes no randomness and feeds no probe: the age policy
	// stripped of its declarations records, and runs the same trajectory.
	cfg := digestConfig()
	cfg.Rounds = 200
	plain := digestRun(t, cfg)
	cfg.policy = historyBound{age()}
	if bound := digestRun(t, cfg); bound != plain {
		t.Fatalf("digest %#x with histories recorded, %#x without", bound, plain)
	}
}

func TestWarmupExcludesEarlyEvents(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 300
	cfg.Warmup = 200
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	var total int64
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		total += res.Collector.Counts(c).PeerRounds
	}
	want := int64(cfg.NumPeers) * (cfg.Rounds - cfg.Warmup)
	if total != want {
		t.Fatalf("measured peer rounds = %d, want %d", total, want)
	}
}
