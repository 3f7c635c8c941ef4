package sim

import (
	"strings"
	"testing"
)

// TestFixedModeGoldenDigests is the adaptive layer's degenerate-mode
// equivalence gate (the instant-mode test's sibling): explicitly
// configuring the fixed redundancy policy must reproduce the engine's
// default probe streams bit for bit — same goldens as
// TestGoldenScenarioDigests, rng draw order untouched, the redundancy
// phase never entered.
func TestFixedModeGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios(t)[:3] {
		t.Run(sc.name, func(t *testing.T) {
			sc.cfg.RedundancySpec = "fixed"
			if got := digestRun(t, sc.cfg); got != sc.pinned {
				t.Errorf("fixed-mode digest = %#x, want %#x (redundancy gate leaked into the fixed path)", got, sc.pinned)
			}
		})
	}
	t.Run("replay", func(t *testing.T) {
		rep := replayScenario(t, func(c *Config) { c.RedundancySpec = "fixed" })
		if got := digestRun(t, rep); got != goldenReplay {
			t.Errorf("fixed-mode replay digest = %#x, want %#x", got, goldenReplay)
		}
	})
}

// adaptiveConfig is digestConfig under an adaptive policy whose target
// the scaled-down 32-block code shape can actually undercut and whose
// hysteresis band the shape's narrow [k', n] range can cross: with the
// defaults (five nines, 6-block band) the policy would pin every
// archive at Max and the storage-savings assertions below would be
// vacuous.
func adaptiveConfig() Config {
	cfg := digestConfig()
	cfg.RedundancySpec = "adaptive:target=0.99,hysteresis=2"
	return cfg
}

// TestAdaptiveDeterminism: equal seeds give identical adaptive
// trajectories, and the adaptive policy genuinely deviates from fixed
// (otherwise the whole layer is dead code).
func TestAdaptiveDeterminism(t *testing.T) {
	a := digestRun(t, adaptiveConfig())
	b := digestRun(t, adaptiveConfig())
	if a != b {
		t.Fatalf("adaptive digests differ across identical runs: %#x vs %#x", a, b)
	}
	if fixed := digestRun(t, digestConfig()); a == fixed {
		t.Fatalf("adaptive digest equals fixed digest %#x: the policy never acted", fixed)
	}
}

// TestAdaptiveRedundancyActs checks the observable behaviour of the
// adaptive layer end to end: archives start at the full provision and
// shrink once measured, decisions are recorded with their parity-block
// deltas, the mean-n(t) series is populated, and the steady-state
// storage footprint sits below the fixed policy's n-per-archive bill.
func TestAdaptiveRedundancyActs(t *testing.T) {
	cfg := adaptiveConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	col := res.Collector

	fixedRes := func() *Result {
		fs, err := New(digestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return fs.Run()
	}()

	if col.RedundancyGrows() == 0 {
		t.Error("no grow decisions recorded")
	}
	if col.ParityBlocksAdded() == 0 {
		t.Error("no parity blocks added")
	}
	if col.RedundancySeries().Len() == 0 {
		t.Error("redundancy series empty")
	}
	if fixedCol := fixedRes.Collector; fixedCol.RedundancyGrows() != 0 ||
		fixedCol.ParityBlocksAdded() != 0 || fixedCol.RedundancySeries().Len() != 0 {
		t.Error("fixed mode recorded redundancy activity")
	}

	// The mean target can never leave the policy's bound band.
	pol := s.cfg.redundancy
	series := col.RedundancySeries()
	for i := 0; i < series.Len(); i++ {
		_, mean := series.At(i)
		if mean < float64(pol.Min) || mean > float64(pol.Max) {
			t.Fatalf("mean redundancy %v outside policy bounds [%d, %d]", mean, pol.Min, pol.Max)
		}
	}

	// Storage dividend: with partners skewing high-availability under
	// age selection, adaptive archives hold fewer blocks than fixed
	// n-per-archive ones.
	if res.FinalPlacements >= fixedRes.FinalPlacements {
		t.Errorf("adaptive final placements %d >= fixed %d: no storage savings",
			res.FinalPlacements, fixedRes.FinalPlacements)
	}
}

// TestRedundancyConfigValidation: spec errors and shape mismatches must
// surface from Config.Validate, wrapped with the sim prefix.
func TestRedundancyConfigValidation(t *testing.T) {
	bad := digestConfig()
	bad.RedundancySpec = "nope:1"
	if _, err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "sim: ") {
		t.Errorf("unknown spec error = %v, want sim-wrapped", err)
	}

	shape := digestConfig()
	shape.RedundancySpec = "adaptive:min=8" // below k=16
	if _, err := shape.Validate(); err == nil || !strings.Contains(err.Error(), "must exceed k") {
		t.Errorf("shape-invalid policy: error = %v, want min below k rejected", err)
	}

	good := digestConfig()
	good.RedundancySpec = "adaptive:min=24,target=0.95"
	cfg, err := good.Validate()
	if err != nil {
		t.Fatal(err)
	}
	pol := cfg.redundancy
	if pol == nil || pol.Min != 24 || pol.Max != cfg.TotalBlocks {
		t.Errorf("bound policy = %+v, want min=24 max=%d", cfg.redundancy, cfg.TotalBlocks)
	}
}
