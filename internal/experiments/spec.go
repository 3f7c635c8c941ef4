package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// CampaignSpec is the JSON-able recipe for a built-in campaign: the
// registry builds every campaign from one, and its fingerprint keys a
// supervisor's checkpoint journal.
type CampaignSpec struct {
	// Kind names the campaign: a kind of the campaign table (table.go),
	// e.g. "threshold", "repair-delay" or "fixed-vs-adaptive".
	Kind string `json:"kind"`
	// Knobs are the run settings, as the registry's Options carry them.
	// The JSON encoding flattens them into the spec, in this order.
	Knobs
	// Per-kind sweep parameters; empty slices select each campaign's
	// defaults from the campaign table.
	Thresholds []int     `json:"thresholds,omitempty"`
	Delays     []int     `json:"delays,omitempty"`
	Horizons   []int64   `json:"horizons,omitempty"`
	Amplitudes []float64 `json:"amplitudes,omitempty"`
	// Overrides optionally shrinks the base config after the scale
	// preset, so tests and smoke jobs can supervise micro campaigns.
	Overrides *ConfigOverrides `json:"overrides,omitempty"`
}

// Knobs are the run settings every campaign takes from its caller
// (p2psim's flags), declared once: Options and CampaignSpec both embed
// them. Their JSON names and order are part of every spec fingerprint.
type Knobs struct {
	// Scale is the population/duration preset (see BaseConfig).
	Scale Scale `json:"scale,omitempty"`
	// Seed is the base seed; zero means 1.
	Seed uint64 `json:"seed,omitempty"`
	// StrategySpec, when non-empty, overrides the base config's
	// partner-selection strategy ("age:L=2160", "estimator:pareto",
	// "monitored-availability:720"; see selection.Parse). Campaigns that
	// sweep the strategy themselves (ablation-strategy, replay,
	// ablation-estimator) override it per variant.
	StrategySpec string `json:"strategy,omitempty"`
	// Bandwidth, when non-empty, attaches bandwidth classes to the base
	// config ("instant", "dsl", "mixed", "skewed", or an explicit class
	// spec; see transfer.Parse), so any experiment can run over metered
	// links. Campaigns that sweep the bandwidth mix themselves
	// (transfer-baseline, flashcrowd, uplink-sweep) override it per
	// variant.
	Bandwidth string `json:"bandwidth,omitempty"`
	// Redundancy, when non-empty, sets the base config's per-archive
	// redundancy policy ("fixed", "adaptive:min=M,target=P"; see
	// redundancy.Parse). The fixed-vs-adaptive campaign sweeps the policy
	// itself, using this spec as its adaptive arm when it names one.
	Redundancy string `json:"redundancy,omitempty"`
	// Shards sets sim.Config.Shards on every variant: 0 or 1 runs each
	// simulation on one goroutine, >= 2 runs its churn walk and
	// maintenance plan on that many workers. Results are bit-identical
	// at every value, so this is purely a speed knob, composing with
	// Options.Parallelism, which runs whole variants concurrently.
	Shards int `json:"shards,omitempty"`
	// PhaseTimes turns on per-phase wall-time accounting in every
	// variant's sim.Result (walk / merge / maintenance / transfer-drain
	// / evaluation), for the CLI's -phasetimes report.
	PhaseTimes bool `json:"phase_times,omitempty"`
	// TracePath names a churn trace (CSV or JSONL, e.g. from
	// cmd/tracegen) for the replay, estimator and fixed-vs-adaptive
	// kinds; the trace defines the population size. The last two record
	// one when it is empty; the supervisor hands workers such a recorded
	// trace as a temp file, named here.
	TracePath string `json:"trace_path,omitempty"`
}

// ConfigOverrides is the serializable subset of sim.Config knobs a spec
// may override on the scaled base config. Zero fields keep the preset's
// value.
type ConfigOverrides struct {
	NumPeers           int   `json:"num_peers,omitempty"`
	Rounds             int64 `json:"rounds,omitempty"`
	TotalBlocks        int   `json:"total_blocks,omitempty"`
	DataBlocks         int   `json:"data_blocks,omitempty"`
	RepairThreshold    int   `json:"repair_threshold,omitempty"`
	Quota              int32 `json:"quota,omitempty"`
	PoolSamplePerRound int   `json:"pool_sample,omitempty"`
	AcceptHorizon      int64 `json:"accept_horizon,omitempty"`
	Warmup             int64 `json:"warmup,omitempty"`
}

func (o *ConfigOverrides) apply(cfg *sim.Config) {
	if o == nil {
		return
	}
	cfg.NumPeers = cmp.Or(o.NumPeers, cfg.NumPeers)
	cfg.Rounds = cmp.Or(o.Rounds, cfg.Rounds)
	cfg.TotalBlocks = cmp.Or(o.TotalBlocks, cfg.TotalBlocks)
	cfg.DataBlocks = cmp.Or(o.DataBlocks, cfg.DataBlocks)
	cfg.RepairThreshold = cmp.Or(o.RepairThreshold, cfg.RepairThreshold)
	cfg.Quota = cmp.Or(o.Quota, cfg.Quota)
	cfg.PoolSamplePerRound = cmp.Or(o.PoolSamplePerRound, cfg.PoolSamplePerRound)
	cfg.AcceptHorizon = cmp.Or(o.AcceptHorizon, cfg.AcceptHorizon)
	cfg.Warmup = cmp.Or(o.Warmup, cfg.Warmup)
}

// baseConfig is what every variant starts from: the scale preset, the
// shared knobs (parsed eagerly: a typo fails before any run), overrides.
func (s CampaignSpec) baseConfig() (sim.Config, error) {
	cfg, err := BaseConfig(s.Scale)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = cmp.Or(s.Seed, 1)
	cfg.Shards = s.Shards
	cfg.PhaseTimes = s.PhaseTimes
	if s.StrategySpec != "" {
		if _, err := selection.ParseWith(s.StrategySpec, selection.Defaults{Horizon: cfg.AcceptHorizon}); err != nil {
			return cfg, err
		}
		cfg.StrategySpec = s.StrategySpec
	}
	if s.Bandwidth != "" {
		if _, err := transfer.Parse(s.Bandwidth); err != nil {
			return cfg, err
		}
		cfg.BandwidthSpec = s.Bandwidth
	}
	if s.Redundancy != "" {
		if _, err := redundancy.Parse(s.Redundancy); err != nil {
			return cfg, err
		}
		cfg.RedundancySpec = s.Redundancy
	}
	s.Overrides.apply(&cfg)
	return cfg, nil
}

// Build materialises the campaign the spec describes, exactly as the
// registry does: the base config, then the campaign table's constructor
// for the kind, with the spec's sweep lists (or the table's defaults)
// and the trace TracePath names. Only a campaign built here can run
// under a Supervisor.
func (s CampaignSpec) Build() (Campaign, error) {
	c := campaignByKind(s.Kind)
	if c == nil {
		return Campaign{}, fmt.Errorf("experiments: unknown campaign spec kind %q", s.Kind)
	}
	return s.build(c, nil)
}

// build is Build for a resolved table entry, with the campaign's trace
// already in hand; a nil trace is read from TracePath. The campaign
// records the spec as given, for a supervisor's journal and trace path.
func (s CampaignSpec) build(c *campaign, trace *churn.Trace) (Campaign, error) {
	if c.trace && trace == nil {
		if s.TracePath == "" {
			return Campaign{}, c.needsTrace()
		}
		var err error
		if trace, err = churn.ReadTraceFile(s.TracePath); err != nil {
			return Campaign{}, err
		}
	}
	cfg, err := s.baseConfig()
	if err != nil {
		return Campaign{}, err
	}
	given := s
	c.fillSweep(&s)
	camp, err := c.build(cfg, &s, trace)
	camp.spec = &given
	return camp, err
}

// Fingerprint identifies the spec for checkpoint journaling: resuming
// matches journal entries by fingerprint so rows recorded for one
// campaign shape are never replayed into another. It hashes the
// canonical JSON encoding (fixed field order, no indent).
func (s CampaignSpec) Fingerprint() string {
	raw, err := json.Marshal(s)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: spec fingerprint: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}
