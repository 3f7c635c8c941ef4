package sim

import (
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/overlay"
)

// shockConfig returns a small config with no shocks; tests add their
// own specs.
func shockConfig() Config {
	cfg := smallConfig()
	cfg.Rounds = 300
	return cfg
}

func runResult(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// shockRecorder captures every shock event.
type shockRecorder struct {
	BaseProbe
	events []ShockEvent
}

func (p *shockRecorder) OnShock(e ShockEvent) { p.events = append(p.events, e) }

func TestScheduledOutageShock(t *testing.T) {
	cfg := shockConfig()
	rec := &shockRecorder{}
	cfg.Probes = []Probe{rec}
	cfg.Shocks = []ShockSpec{{Name: "blackout", Round: 150, Fraction: 1, Outage: 48}}
	res := runResult(t, cfg)

	if len(rec.events) != 1 {
		t.Fatalf("%d shock events, want 1", len(rec.events))
	}
	ev := rec.events[0]
	if ev.Round != 150 || ev.Name != "blackout" || ev.Killed {
		t.Fatalf("shock event = %+v", ev)
	}
	// Fraction 1 takes down every currently-online peer; with the
	// paper's profiles well over a third of the population is online.
	if ev.Victims < cfg.NumPeers/4 {
		t.Fatalf("only %d victims of %d peers", ev.Victims, cfg.NumPeers)
	}
	if got := res.Collector.TotalShocks(); got != 1 {
		t.Fatalf("collector shocks = %d, want 1", got)
	}
}

func TestShockTakesPeersOffline(t *testing.T) {
	cfg := shockConfig()
	cfg.Rounds = 151 // stop right after the shock fires
	cfg.Shocks = []ShockSpec{{Name: "blackout", Round: 150, Fraction: 1, Outage: 48}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	online := 0
	for id := 0; id < cfg.NumPeers; id++ {
		if s.Ledger().Online(overlay.PeerID(id)) {
			online++
		}
	}
	// Only same-round replacements of departed peers may be online; the
	// shocked population itself is fully dark.
	if online > 5 {
		t.Fatalf("%d peers online right after a fraction-1 outage shock", online)
	}
}

func TestKillShockCausesDeaths(t *testing.T) {
	base := shockConfig()
	baseline := runResult(t, base)

	cfg := shockConfig()
	cfg.Shocks = []ShockSpec{{Name: "datacenter-fire", Round: 100, Fraction: 1, Regions: 4, Kill: true}}
	shocked := runResult(t, cfg)

	// Killing a whole region mid-run must add roughly a region's worth
	// of departures over the baseline.
	extra := shocked.Deaths - baseline.Deaths
	if extra < int64(cfg.NumPeers/8) {
		t.Fatalf("kill shock added only %d deaths (baseline %d, shocked %d)",
			extra, baseline.Deaths, shocked.Deaths)
	}
}

func TestStochasticShockDeterminism(t *testing.T) {
	make2 := func() *Result {
		cfg := shockConfig()
		cfg.Shocks = []ShockSpec{{Name: "flaky-isp", Rate: 0.02, Fraction: 0.3, Regions: 6, Outage: 12}}
		return runResult(t, cfg)
	}
	a, b := make2(), make2()
	if a.Deaths != b.Deaths ||
		a.Collector.TotalRepairs() != b.Collector.TotalRepairs() ||
		a.Collector.TotalLosses() != b.Collector.TotalLosses() ||
		a.Collector.TotalShocks() != b.Collector.TotalShocks() ||
		a.Collector.ShockAttributedLosses() != b.Collector.ShockAttributedLosses() ||
		a.FinalPlacements != b.FinalPlacements {
		t.Fatalf("same seed, different runs: %+v vs %+v", a, b)
	}
	if a.Collector.TotalShocks() == 0 {
		t.Fatal("stochastic shock never fired in 300 rounds at rate 0.02")
	}
}

func TestShockSpecValidation(t *testing.T) {
	bad := []ShockSpec{
		{Name: "f0", Fraction: 0},
		{Name: "f2", Fraction: 2},
		{Name: "r1", Fraction: 0.5, Rate: 1},
		{Name: "rneg", Fraction: 0.5, Rate: -0.1},
		{Name: "round", Fraction: 0.5, Round: -1},
		{Name: "regions", Fraction: 0.5, Regions: -1},
		{Name: "outage", Fraction: 0.5, Outage: -1},
	}
	for _, sp := range bad {
		cfg := shockConfig()
		cfg.Shocks = []ShockSpec{sp}
		if _, err := New(cfg); err == nil {
			t.Fatalf("invalid shock %q accepted", sp.Name)
		}
	}
}

func TestShocksIncompatibleWithReplay(t *testing.T) {
	cfg := shockConfig()
	cfg.Replay = &churn.Trace{Events: []churn.Event{{Round: 0, Peer: 0, Kind: churn.EvJoin}}}
	cfg.Shocks = []ShockSpec{{Name: "x", Round: 1, Fraction: 0.5}}
	if _, err := New(cfg); err == nil {
		t.Fatal("Shocks+Replay accepted")
	}
}

func TestDiurnalAvailabilityRuns(t *testing.T) {
	cfg := shockConfig()
	cfg.AvailSpec = "diurnal:0.8"
	a := runResult(t, cfg)
	cfg2 := shockConfig()
	cfg2.AvailSpec = "diurnal:0.8"
	b := runResult(t, cfg2)
	if a.Deaths != b.Deaths || a.Collector.TotalRepairs() != b.Collector.TotalRepairs() ||
		a.Collector.TotalLosses() != b.Collector.TotalLosses() {
		t.Fatal("diurnal run not deterministic under equal seeds")
	}
	// The population must visibly breathe: the best and worst hours of
	// the day must differ clearly in mean online population. (The
	// response lags the forcing by a few hours — session inertia — so
	// compare extremes over the whole day rather than fixed hours.)
	probe := &onlineCounter{}
	cfg3 := shockConfig()
	cfg3.Rounds = 20 * churn.Day
	cfg3.AvailSpec = "diurnal:0.9"
	cfg3.Probes = []Probe{probe}
	s, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	min, max := probe.byHour[0], probe.byHour[0]
	for _, v := range probe.byHour {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if float64(max) < 1.1*float64(min) {
		t.Fatalf("diurnal population does not breathe: hourly online sums %v", probe.byHour)
	}
}

// onlineCounter sums the online population per hour of day via churn
// events (probes must not touch the simulation, so it follows session
// flips itself).
type onlineCounter struct {
	BaseProbe
	online bitset
	byHour [24]int64
}

type bitset map[int]bool

func (p *onlineCounter) OnChurn(e ChurnEvent) {
	if p.online == nil {
		p.online = make(bitset)
	}
	switch e.Kind {
	case churn.EvOnline:
		p.online[e.Peer] = true
	case churn.EvOffline, churn.EvLeave:
		p.online[e.Peer] = false
	}
}

func (p *onlineCounter) OnRoundEnd(e RoundEndEvent) {
	var n int64
	for _, on := range p.online {
		if on {
			n++
		}
	}
	p.byHour[e.Round%churn.Day] += n
}
