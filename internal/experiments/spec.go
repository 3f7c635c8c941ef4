package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// CampaignSpec is the JSON-able recipe for a built-in campaign: enough
// to rebuild the exact same Campaign — same constructors, same derived
// variant seeds — in another process. It exists because sim.Config
// itself cannot cross a process boundary (Policy, Avail and Redundancy
// are interfaces; Probes and Progress are live objects), so the worker
// protocol ships the recipe and both sides materialise variants through
// the same constructors. That shared derivation, plus the bit-exact
// JSON result snapshot (internal/metrics), is what makes a supervised
// campaign's output byte-identical to the in-process run.
type CampaignSpec struct {
	// Kind names the campaign constructor: "threshold", "focal",
	// "strategy", "availability", "repair-delay", "horizon", "diurnal",
	// "blackout", "replay", "estimator", "transfer-baseline",
	// "flashcrowd", "uplink-sweep" or "fixed-vs-adaptive".
	Kind string `json:"kind"`
	// Scale is the population/duration preset (see BaseConfig).
	Scale Scale `json:"scale,omitempty"`
	// Seed is the base seed; zero means 1, matching RunCtx.
	Seed uint64 `json:"seed,omitempty"`
	// StrategySpec, Bandwidth, Redundancy, Shards and PhaseTimes mirror
	// the Options fields of the same names.
	StrategySpec string `json:"strategy,omitempty"`
	Bandwidth    string `json:"bandwidth,omitempty"`
	Redundancy   string `json:"redundancy,omitempty"`
	Shards       int    `json:"shards,omitempty"`
	PhaseTimes   bool   `json:"phase_times,omitempty"`
	// TracePath names the churn trace file for the replay, estimator and
	// fixed-vs-adaptive kinds. The supervisor materialises internally
	// recorded traces to a temp file so workers replay the same churn.
	TracePath string `json:"trace_path,omitempty"`
	// Per-kind sweep parameters; empty slices select each campaign's
	// registry defaults.
	Thresholds []int     `json:"thresholds,omitempty"`
	Delays     []int     `json:"delays,omitempty"`
	Horizons   []int64   `json:"horizons,omitempty"`
	Amplitudes []float64 `json:"amplitudes,omitempty"`
	// Overrides optionally shrinks the base config after the scale
	// preset, so tests and smoke jobs can supervise micro campaigns.
	Overrides *ConfigOverrides `json:"overrides,omitempty"`
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
	if o.NumPeers != 0 {
		cfg.NumPeers = o.NumPeers
	}
	if o.Rounds != 0 {
		cfg.Rounds = o.Rounds
	}
	if o.TotalBlocks != 0 {
		cfg.TotalBlocks = o.TotalBlocks
	}
	if o.DataBlocks != 0 {
		cfg.DataBlocks = o.DataBlocks
	}
	if o.RepairThreshold != 0 {
		cfg.RepairThreshold = o.RepairThreshold
	}
	if o.Quota != 0 {
		cfg.Quota = o.Quota
	}
	if o.PoolSamplePerRound != 0 {
		cfg.PoolSamplePerRound = o.PoolSamplePerRound
	}
	if o.AcceptHorizon != 0 {
		cfg.AcceptHorizon = o.AcceptHorizon
	}
	if o.Warmup != 0 {
		cfg.Warmup = o.Warmup
	}
}

// options projects the spec back onto the Options fields baseFor reads.
func (s CampaignSpec) options() Options {
	return Options{
		Scale:        s.Scale,
		Seed:         s.Seed,
		StrategySpec: s.StrategySpec,
		Bandwidth:    s.Bandwidth,
		Redundancy:   s.Redundancy,
		Shards:       s.Shards,
		PhaseTimes:   s.PhaseTimes,
	}
}

// Build materialises the campaign the spec describes, exactly as the
// registry would: scale preset, option overrides, then the kind's
// constructor with the spec's sweep parameters (or the registry
// defaults when absent).
func (s CampaignSpec) Build() (Campaign, error) {
	opts := s.options()
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cfg, err := baseFor(opts)
	if err != nil {
		return Campaign{}, err
	}
	s.Overrides.apply(&cfg)

	readTrace := func() (*churn.Trace, error) {
		if s.TracePath == "" {
			return nil, fmt.Errorf("experiments: spec kind %q needs a trace_path", s.Kind)
		}
		return churn.ReadTraceFile(s.TracePath)
	}

	switch s.Kind {
	case "threshold":
		th := s.Thresholds
		if len(th) == 0 {
			th = PaperThresholds()
		}
		return ThresholdCampaign(cfg, th)
	case "focal":
		return FocalCampaign(cfg), nil
	case "strategy":
		return StrategyCampaign(cfg), nil
	case "availability":
		return AvailabilityCampaign(cfg), nil
	case "repair-delay":
		d := s.Delays
		if len(d) == 0 {
			d = []int{0, 6, 24, 72}
		}
		return RepairDelayCampaign(cfg, d), nil
	case "horizon":
		h := s.Horizons
		if len(h) == 0 {
			h = []int64{30 * churn.Day, 90 * churn.Day, 180 * churn.Day}
		}
		return HorizonCampaign(cfg, h), nil
	case "diurnal":
		a := s.Amplitudes
		if len(a) == 0 {
			a = []float64{0, 0.3, 0.6, 0.9}
		}
		return DiurnalCampaign(cfg, a), nil
	case "blackout":
		return BlackoutCampaign(cfg), nil
	case "replay":
		trace, err := readTrace()
		if err != nil {
			return Campaign{}, err
		}
		return ReplayCampaign(cfg, trace), nil
	case "estimator":
		trace, err := readTrace()
		if err != nil {
			return Campaign{}, err
		}
		return EstimatorCampaign(cfg, trace), nil
	case "transfer-baseline":
		return TransferBaselineCampaign(cfg), nil
	case "flashcrowd":
		return FlashCrowdCampaign(cfg), nil
	case "uplink-sweep":
		return UplinkSweepCampaign(cfg), nil
	case "fixed-vs-adaptive":
		trace, err := readTrace()
		if err != nil {
			return Campaign{}, err
		}
		return RedundancyCampaign(cfg, trace, redundancyAdaptiveSpec(opts)), nil
	default:
		return Campaign{}, fmt.Errorf("experiments: unknown campaign spec kind %q", s.Kind)
	}
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
