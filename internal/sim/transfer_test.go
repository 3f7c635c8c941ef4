package sim

import "testing"

// TestInstantModeGoldenDigests is the degenerate-mode equivalence
// satellite: attaching the transfer subsystem in instant mode (one
// class, infinite rates) must reproduce the transfer-free engine's
// probe streams bit for bit — same digests as
// TestGoldenScenarioDigests, rng draw order untouched.
func TestInstantModeGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios(t)[:3] {
		t.Run(sc.name, func(t *testing.T) {
			sc.cfg.BandwidthSpec = "instant"
			if got := digestRun(t, sc.cfg); got != sc.pinned {
				t.Errorf("instant-mode digest = %#x, want %#x (transfer gate leaked into the instant path)", got, sc.pinned)
			}
		})
	}
}

// bandwidthConfig is digestConfig with a slow, mixed-class link
// population: uploads span rounds, so repairs are routinely in flight
// across churn events.
func bandwidthConfig(t *testing.T, spec string) Config {
	t.Helper()
	cfg := digestConfig()
	cfg.BandwidthSpec = spec
	return cfg
}

// TestBandwidthRunDeterminism: bandwidth-mode trajectories (including
// the transfer event stream) are a pure function of the seed.
func TestBandwidthRunDeterminism(t *testing.T) {
	a := digestRun(t, bandwidthConfig(t, "skewed"))
	b := digestRun(t, bandwidthConfig(t, "skewed"))
	if a != b {
		t.Errorf("same-seed bandwidth digests differ: %#x vs %#x", a, b)
	}
	if c := digestRun(t, bandwidthConfig(t, "instant")); c == a {
		t.Error("skewed-class digest equals instant digest: bandwidth scheduling had no effect")
	}
}

// TestBandwidthRepairsComplete: with DSL-class links the population
// still reaches full inclusion and time-to-backup is observable.
func TestBandwidthRepairsComplete(t *testing.T) {
	cfg := bandwidthConfig(t, "dsl")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.FinalIncluded < cfg.NumPeers*9/10 {
		t.Errorf("only %d/%d peers included under DSL scheduling", res.FinalIncluded, cfg.NumPeers)
	}
	ttb := res.Collector.TimeToBackup()
	if ttb.N() == 0 {
		t.Fatal("no time-to-backup samples recorded")
	}
	if ttb.Max() <= 0 {
		t.Error("every episode completed instantly under DSL rates; transfers are not stretching uploads")
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Errorf("ledger inconsistent after bandwidth run: %v", err)
	}
}

// TestFlashCrowdRestores: a kill shock followed by mass restore demand
// produces a time-to-restore distribution; demand from peers whose
// archive the shock destroyed either completes late or fails, never
// hangs the run.
func TestFlashCrowdRestores(t *testing.T) {
	cfg := bandwidthConfig(t, "dsl")
	cfg.Shocks = []ShockSpec{{Name: "blackout", Round: 200, Fraction: 0.4, Outage: 48}}
	cfg.Restores = []RestoreSpec{{Name: "crowd", Round: 210, Fraction: 0.5}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	ttr := res.Collector.TimeToRestore()
	if ttr.N() == 0 {
		t.Fatal("flash crowd produced no completed restores")
	}
	if ttr.Quantile(0.5) < 0 || ttr.Max() < ttr.Quantile(0.5) {
		t.Errorf("degenerate TTR distribution: median %v max %v", ttr.Quantile(0.5), ttr.Max())
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Errorf("ledger inconsistent after flash crowd: %v", err)
	}
}

// TestShockWipesBothEndpoints is the interruption stress satellite: a
// full-population kill shock lands while many multi-round transfers
// are in flight, destroying sources and sinks alike. Every transfer
// must abort (stale heap entries discarded, no stale delivery — the
// engine panics on one), the replacement population must rebuild, and
// the trajectory stays deterministic.
func TestShockWipesBothEndpoints(t *testing.T) {
	build := func() Config {
		cfg := bandwidthConfig(t, "skewed")
		cfg.Shocks = []ShockSpec{{Name: "wipeout", Round: 150, Fraction: 1, Kill: true}}
		cfg.Restores = []RestoreSpec{{Name: "crowd", Round: 160, Fraction: 0.5}}
		return cfg
	}
	a := digestRun(t, build())
	if b := digestRun(t, build()); a != b {
		t.Errorf("wipeout digests differ: %#x vs %#x", a, b)
	}
	s, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deaths < int64(build().NumPeers) {
		t.Errorf("wipeout killed %d peers, want >= %d", res.Deaths, build().NumPeers)
	}
	if res.FinalIncluded == 0 {
		t.Error("population never rebuilt after the wipeout")
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Errorf("ledger inconsistent after wipeout: %v", err)
	}
}

// TestSinkReplacedMidFlight targets slot reuse: with kill churn and
// slow links, hosts routinely die (and their slots refill) while
// blocks are flowing toward them. The abort-on-death hook plus the
// generation-stamped endpoint check in completeUpload guarantee no
// block is ever delivered to a slot's new occupant; the run completing
// without the engine's stale-endpoint panic, with a consistent ledger,
// is the assertion.
func TestSinkReplacedMidFlight(t *testing.T) {
	cfg := bandwidthConfig(t, "skewed")
	cfg.Shocks = []ShockSpec{{Name: "attrition", Rate: 0.2, Fraction: 0.05, Kill: true}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deaths == 0 {
		t.Fatal("attrition scenario produced no deaths; the test exercises nothing")
	}
	if err := s.Ledger().CheckConsistency(); err != nil {
		t.Errorf("ledger inconsistent after slot-reuse churn: %v", err)
	}
}

// TestRestoreOnlyConfigKeepsInstantPlacement: scheduling restores
// without a bandwidth mix must not reroute uploads — placement stays
// on the legacy path (same digest as the plain run until the restore
// round, and restores land next round on infinite links).
func TestRestoreOnlyConfigKeepsInstantPlacement(t *testing.T) {
	cfg := digestConfig()
	cfg.Restores = []RestoreSpec{{Name: "crash", Round: 490, Fraction: 0.2}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	ttr := res.Collector.TimeToRestore()
	if ttr.N() == 0 {
		t.Fatal("restore-only config completed no restores")
	}
	// An offline demander waits for its session and a stalled one for
	// visibility, so only the fast path is pinned: an online peer with a
	// decodable archive gets its data back the next round.
	if ttr.Quantile(0) > 1 {
		t.Errorf("fastest instant-link restore took %v rounds, want <= 1", ttr.Quantile(0))
	}
}
