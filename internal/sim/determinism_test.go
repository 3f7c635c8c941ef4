package sim

import (
	"hash/fnv"
	"testing"
)

// The digests below pin the engine's trajectories: every churn event,
// repair, outage, loss, stall, cancel, shock, transfer, redundancy
// change and round-end, field for field, in emission order. They are
// regression pins — a mismatch means a change moved a simulated
// trajectory, not just the engine's cost profile. Whether a moved
// trajectory is still right is internal/experiments' shape test's
// question, not a digest's.

// digestProbe folds every probe event (kind tag plus all fields, in
// emission order) into an FNV-1a hash.
type digestProbe struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newDigestProbe() *digestProbe { return &digestProbe{h: fnv.New64a()} }

func (d *digestProbe) mix(vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d *digestProbe) OnChurn(e ChurnEvent) {
	d.mix(1, e.Round, int64(e.Peer), int64(e.Kind), int64(e.Profile))
}
func (d *digestProbe) OnDeath(e PeerEvent) {
	d.mix(2, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnRepair(e RepairEvent) {
	init := int64(0)
	if e.Initial {
		init = 1
	}
	d.mix(3, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile), init, int64(e.Uploaded), int64(e.Dropped))
}
func (d *digestProbe) OnOutage(e PeerEvent) {
	d.mix(4, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnHardLoss(e PeerEvent) {
	d.mix(5, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnStall(e PeerEvent) {
	d.mix(6, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnCancel(e PeerEvent) {
	d.mix(7, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnShock(e ShockEvent) {
	killed := int64(0)
	if e.Killed {
		killed = 1
	}
	d.mix(8, e.Round, int64(e.Index), int64(e.Victims), killed)
}
func (d *digestProbe) OnObserverRepair(e ObserverRepairEvent) {
	d.mix(9, e.Round, int64(e.Observer))
}
func (d *digestProbe) OnRoundEnd(e RoundEndEvent) {
	vals := make([]int64, 0, len(e.Population)+2)
	vals = append(vals, 10, e.Round)
	for _, p := range e.Population {
		vals = append(vals, p)
	}
	d.mix(vals...)
}

// Transfer events never fire in instant mode, so mixing them keeps the
// historical digests intact while pinning bandwidth-mode streams.
// OnRepair deliberately does not mix Elapsed: the field was added after
// the goldens were captured.
func (d *digestProbe) OnTransferStart(e TransferEvent) {
	d.mix(11, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}
func (d *digestProbe) OnTransferComplete(e TransferEvent) {
	d.mix(12, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}
func (d *digestProbe) OnTransferAbort(e TransferEvent) {
	d.mix(13, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}

// Redundancy events never fire in fixed mode (same preservation rule as
// the transfer events above); mixing them pins adaptive-mode streams.
// OnRoundEnd likewise does not mix MeanRedundancy: it is 0 in fixed
// mode and fully determined by the OnRedundancyChange stream otherwise.
func (d *digestProbe) OnRedundancyChange(e RedundancyEvent) {
	d.mix(14, e.Round, int64(e.Peer), int64(e.From), int64(e.To))
}

// digestRun executes cfg with a digest probe attached and folds the
// result counters into the final hash.
func digestRun(t *testing.T, cfg Config) uint64 {
	t.Helper()
	d := newDigestProbe()
	cfg.Probes = append(cfg.Probes, d)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	d.mix(res.Deaths, res.Cancels, int64(res.FinalPlacements), int64(res.FinalIncluded))
	return d.h.Sum64()
}

// digestConfig is the paper's configuration scaled down (population,
// horizon and code shape shrunk together) so a full scenario run takes
// well under a second while still exercising deaths, repairs, stalls,
// losses and observer maintenance.
func digestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 300
	cfg.Rounds = 500
	cfg.TotalBlocks = 32
	cfg.DataBlocks = 16
	cfg.RepairThreshold = 20
	cfg.Quota = 96
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 72
	cfg.Observers = PaperObservers()
	cfg.Seed = 42
	return cfg
}

// goldenScenario is one scenario of the determinism matrix with its
// pinned digest.
type goldenScenario struct {
	name   string
	cfg    Config
	pinned uint64
}

// goldenScenarios returns the matrix: iid, diurnal and correlated-shock
// churn (the three every degenerate-mode test re-runs), then metered
// links and adaptive redundancy, then the two negotiation modes the
// paper's policy at digestConfig's horizon does not reach: a policy that
// accepts everyone, and the age policy at a horizon of six rounds, where
// most pairs sit at one end of the acceptance function's clamp or the
// other.
func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	shockCfg := digestConfig()
	shockCfg.Shocks = []ShockSpec{
		{Name: "blackout", Round: 120, Fraction: 0.5, Outage: 24},
		{Name: "regional-kill", Rate: 0.01, Fraction: 0.3, Regions: 4, Kill: true},
	}
	diurnalCfg := digestConfig()
	diurnalCfg.AvailSpec = "diurnal:0.6"
	bwCfg := digestConfig()
	bwCfg.BandwidthSpec = "skewed"
	adaptCfg := digestConfig()
	adaptCfg.RedundancySpec = "adaptive"
	adaptBwCfg := digestConfig()
	adaptBwCfg.BandwidthSpec = "skewed"
	adaptBwCfg.RedundancySpec = "adaptive:target=0.95,eval=12"
	randomCfg := digestConfig()
	randomCfg.StrategySpec = "random"
	clampCfg := digestConfig()
	clampCfg.StrategySpec = "age:L=6"
	return []goldenScenario{
		{"iid", digestConfig(), 0x0cd3b098d706981b},
		{"diurnal", diurnalCfg, 0xb577f128494f18f4},
		{"shock", shockCfg, 0x8ce20df5541ed8be},
		{"bandwidth", bwCfg, 0x81538f462da41cd2},
		{"adaptive", adaptCfg, 0xd04a5b0e4306a059},
		{"adaptive-bandwidth", adaptBwCfg, 0x533495d926d49707},
		{"accept-all", randomCfg, 0xd317264d0fcde83b},
		{"age-clamped", clampCfg, 0x503fb937276284c8},
	}
}

// goldenReplay pins the replay scenario: a trace recorded from
// digestConfig without observers, replayed under another strategy.
const goldenReplay uint64 = 0x78911489579d3732

// replayScenario records the trace (mutate adjusts both configs) and
// returns the config that replays it.
func replayScenario(t *testing.T, mutate func(*Config)) Config {
	t.Helper()
	rec := digestConfig()
	rec.RecordTrace = true
	rec.Observers = nil
	mutate(&rec)
	s, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	rep := digestConfig()
	rep.Observers = nil
	rep.Replay = s.Run().Trace
	rep.StrategySpec = "monitored-availability"
	mutate(&rep)
	return rep
}

// TestGoldenScenarioDigests: the zero-value engine configuration
// reproduces the pinned trajectories under every churn regime.
func TestGoldenScenarioDigests(t *testing.T) {
	for _, sc := range goldenScenarios(t)[:3] {
		t.Run(sc.name, func(t *testing.T) {
			if got := digestRun(t, sc.cfg); got != sc.pinned {
				t.Errorf("digest = %#x, want %#x (trajectory drifted)", got, sc.pinned)
			}
		})
	}
}

// TestGoldenReplayDigest records a trace from a generative run and
// replays it under a different selection strategy.
func TestGoldenReplayDigest(t *testing.T) {
	if got := digestRun(t, replayScenario(t, func(*Config) {})); got != goldenReplay {
		t.Errorf("replay digest = %#x, want %#x (trajectory drifted)", got, goldenReplay)
	}
}
