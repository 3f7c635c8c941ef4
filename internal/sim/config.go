package sim

import (
	"fmt"
	"math/bits"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/transfer"
)

// ObserverSpec declares a fixed-age observer peer (the paper's section
// 4.2.2): its age never changes, it never dies, it is always online,
// other peers cannot select it as a partner, and its blocks do not
// consume host quota.
type ObserverSpec struct {
	Name string
	Age  int64 // rounds
}

// PaperObservers returns the paper's five observers.
func PaperObservers() []ObserverSpec {
	return []ObserverSpec{
		{Name: "elder", Age: 3 * churn.Month}, // the age limit L
		{Name: "senior", Age: 1 * churn.Month},
		{Name: "adult", Age: 1 * churn.Week},
		{Name: "teenager", Age: 1 * churn.Day},
		{Name: "baby", Age: 1 * churn.Hour},
	}
}

// Config parameterises one simulation run. Its JSON form, which a
// supervised campaign sends its workers, is every exported field but
// Profiles, Replay and Probes: built or live objects, tagged `json:"-"`.
type Config struct {
	// NumPeers is the population size (constant; departures are
	// replaced immediately). Paper: 25,000.
	NumPeers int
	// Rounds is the simulation length (1 round = 1 hour). Paper: 50,000.
	Rounds int64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Shards is the engine's worker count: the slot space is partitioned
	// into Shards contiguous ranges, and the churn walk and the
	// maintenance plan run one goroutine per range, merged back
	// deterministically. Results are bit-identical at every value — see
	// the determinism invariant in the package comment. 0 or 1 runs
	// everything on the calling goroutine; values above the slot count
	// are allowed (the excess shards own empty ranges).
	Shards int
	// Walk is vestigial: there is one engine. "" and "v3" (what that
	// engine was called while it had a rival) are accepted and mean
	// nothing; any other value is an error. Nothing reads it.
	//
	// Deprecated: kept only because bench/ sets it by name; to be
	// deleted by the PR that next edits bench/.
	Walk string

	// TotalBlocks (n), DataBlocks (k): erasure-code shape. Paper: 256/128.
	TotalBlocks int
	DataBlocks  int
	// RepairThreshold is k'. Paper: 132-180, focal value 148.
	RepairThreshold int
	// Quota is the per-peer hosted-block cap. Paper: 384.
	Quota int32
	// AcceptHorizon is L for the acceptance function, in rounds.
	// Paper: 90 days.
	AcceptHorizon int64
	// PoolSamplePerRound bounds candidate probing per repairing peer.
	PoolSamplePerRound int
	// UploadBudgetPerRound caps blocks uploaded per peer per round (the
	// section 2.2.4 bandwidth bound: a worst-case repair of ~128 blocks
	// fills about one hour on the reference DSL link). 0 = unlimited.
	// A non-instant bandwidth mix (BandwidthSpec) bounds peers by their
	// class instead; unmetered observers keep this budget.
	UploadBudgetPerRound int

	// BandwidthSpec, when non-empty, names a bandwidth-class mix
	// ("dsl", "mixed", "skewed" or explicit classes; see transfer.Parse)
	// and replaces instantaneous placement with bandwidth-aware transfer
	// scheduling: peers draw a bandwidth class at join, uploads and
	// restores flow over asymmetric links, and completions are calendar
	// events (see internal/transfer). "" — or "instant", the degenerate
	// single instant class — keeps instant placement under
	// UploadBudgetPerRound, bit-identical to pre-transfer runs.
	BandwidthSpec string

	// RedundancySpec names the per-archive redundancy policy as a spec
	// string (see redundancy.Parse). "" or "fixed", the default, is no
	// policy: every archive keeps the configured n and k'. "adaptive"
	// ("adaptive:target=0.95") retunes each archive's target block count
	// online from monitored partner availability, within [k+1, n] —
	// TotalBlocks stays the ledger's preallocated ceiling.
	RedundancySpec string

	// Restores schedules restore-demand events (flash crowds): at each
	// spec's round, included peers independently demand their archive
	// back and download k blocks over their downlink. Restore timing
	// uses BandwidthSpec's class rates (instant when it is empty).
	Restores []RestoreSpec

	// Profiles is the behaviour population (default: the paper's four).
	// Each slot draws its profile from these proportions once; a
	// departed peer's replacement inherits it, so the mix stays as drawn.
	Profiles *churn.ProfileSet `json:"-"`
	// AvailSpec names the model that generates online/offline sessions
	// as a spec string (see churn.ParseAvailability): "" or "session",
	// the default, is exponential sessions over a one-day mean cycle;
	// "bernoulli", "always-online" and "diurnal:AMP" are the others.
	AvailSpec string
	// StrategySpec names the partner-selection policy as a spec string
	// ("age:L=2160", "estimator:pareto", "monitored-availability:720";
	// see selection.Parse), picking partners on the observable/oracle
	// knowledge split. Default: the paper's age-based rule with
	// L = AcceptHorizon; specs omitting a horizon default to
	// AcceptHorizon.
	StrategySpec string

	// RepairDelay holds a triggered repair for this many owner-online
	// rounds before decoding, letting offline partners return (the
	// paper's future-work knob). 0 = immediate.
	RepairDelay int

	// Shocks schedules correlated-failure events (power outages, ISP
	// failures) on top of the profile churn; see ShockSpec. Mutually
	// exclusive with Replay.
	Shocks []ShockSpec
	// Replay, when non-nil, drives membership and sessions from the
	// recorded trace instead of the profile sampler: runs become
	// deterministic in the churn dimension, enabling paired comparisons
	// (same churn, different strategy). NumPeers is derived from the
	// trace; Profiles is still used to map the trace's profile indices
	// to availabilities for the oracle strategies.
	Replay *churn.Trace `json:"-"`

	// Observers to instantiate (may be empty).
	Observers []ObserverSpec

	// Probes are custom event observers attached after the built-in
	// metrics/trace probes. Probes are stateful: never share one
	// instance between concurrently running simulations.
	Probes []Probe `json:"-"`

	// Warmup rounds excluded from rate metrics (series still cover the
	// full run, like the paper's figures, sampled once a day).
	Warmup int64

	// RecordTrace enables churn trace capture (memory-heavy at full
	// scale; meant for small runs and tracegen).
	RecordTrace bool

	// PhaseTimes enables per-phase wall-time accounting: Result.Phases
	// reports the cumulative walk / merge / maintenance / transfer-drain
	// / evaluation durations at run end (the p2psim -phasetimes flag).
	// Off by default; it never changes a trajectory, only adds two clock
	// reads per phase per round.
	PhaseTimes bool

	// policy, redundancy, avail and bandwidth are what StrategySpec,
	// RedundancySpec, AvailSpec and BandwidthSpec resolve to, filled by
	// Validate: redundancy is bound to the code shape, and nil for the
	// fixed shape; bandwidth is nil when BandwidthSpec is empty. A
	// package test may set policy first, to any selection.Policy,
	// redundancy, to a *redundancy.Adaptive that Validate then binds, or
	// avail, to any churn.AvailabilityModel, to run the engine under a
	// policy no spec string names.
	policy     selection.Policy
	redundancy *redundancy.Adaptive
	avail      churn.AvailabilityModel
	bandwidth  *transfer.Params
}

// DefaultConfig returns the paper's parameters at full scale.
func DefaultConfig() Config {
	return Config{
		NumPeers:             25000,
		Rounds:               50000,
		Seed:                 1,
		TotalBlocks:          256,
		DataBlocks:           128,
		RepairThreshold:      148,
		Quota:                384,
		AcceptHorizon:        90 * churn.Day,
		PoolSamplePerRound:   128,
		UploadBudgetPerRound: 128,
	}
}

// Validate checks the configuration, filling defaults for nil
// sub-components. It returns the normalised config.
func (c Config) Validate() (Config, error) {
	if c.Profiles == nil {
		c.Profiles = churn.PaperProfiles()
	}
	if c.avail == nil {
		m, err := churn.ParseAvailability(c.AvailSpec)
		if err != nil {
			return c, fmt.Errorf("sim: %w", err)
		}
		c.avail = m
	}
	if c.policy == nil {
		pol, err := selection.ParseWith(c.StrategySpec, selection.Defaults{Horizon: c.AcceptHorizon})
		if err != nil {
			return c, fmt.Errorf("sim: %w", err)
		}
		c.policy = pol
	}
	if c.Replay != nil {
		if len(c.Shocks) > 0 {
			return c, fmt.Errorf("sim: Shocks and Replay are mutually exclusive (record a shocked run and replay that trace instead)")
		}
		// The trace defines the population; the full structural check
		// happens in compileReplay at New time.
		c.NumPeers = int(c.Replay.MaxPeer()) + 1
	}
	if len(c.Shocks) > 0 {
		// Normalise a copy: the caller's slice may be shared between
		// concurrently validated variants.
		c.Shocks = append([]ShockSpec(nil), c.Shocks...)
		for i := range c.Shocks {
			sp := &c.Shocks[i]
			if err := sp.Validate(); err != nil {
				return c, err
			}
			if !sp.Kill && sp.Outage == 0 {
				sp.Outage = churn.Day
			}
		}
	}
	if c.BandwidthSpec != "" {
		bw, err := transfer.Parse(c.BandwidthSpec)
		if err != nil {
			return c, fmt.Errorf("sim: %w", err)
		}
		c.bandwidth = bw
	}
	if len(c.Restores) > 0 {
		c.Restores = append([]RestoreSpec(nil), c.Restores...)
		for _, sp := range c.Restores {
			if err := sp.Validate(); err != nil {
				return c, err
			}
		}
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("sim: Shards = %d must be >= 0", c.Shards)
	}
	if c.Walk != "" && c.Walk != "v3" {
		return c, fmt.Errorf("sim: Walk = %q: the walk modes were collapsed into one engine (PR 21); leave Walk empty", c.Walk)
	}
	if c.NumPeers < 2 {
		return c, fmt.Errorf("sim: NumPeers = %d too small", c.NumPeers)
	}
	if c.Rounds < 1 {
		return c, fmt.Errorf("sim: Rounds = %d must be positive", c.Rounds)
	}
	if c.DataBlocks < 1 || c.TotalBlocks <= c.DataBlocks {
		return c, fmt.Errorf("sim: invalid code shape n=%d k=%d", c.TotalBlocks, c.DataBlocks)
	}
	if c.NumPeers <= c.TotalBlocks {
		return c, fmt.Errorf("sim: NumPeers = %d must exceed n = %d (blocks go to distinct peers)",
			c.NumPeers, c.TotalBlocks)
	}
	if c.RepairThreshold < c.DataBlocks || c.RepairThreshold > c.TotalBlocks {
		return c, fmt.Errorf("sim: threshold %d outside [k=%d, n=%d]",
			c.RepairThreshold, c.DataBlocks, c.TotalBlocks)
	}
	if c.redundancy == nil {
		pol, err := redundancy.Parse(c.RedundancySpec)
		if err != nil {
			return c, fmt.Errorf("sim: %w", err)
		}
		c.redundancy = pol
	}
	if c.redundancy != nil {
		bound, err := c.redundancy.Bind(c.DataBlocks, c.RepairThreshold, c.TotalBlocks)
		if err != nil {
			return c, fmt.Errorf("sim: %w", err)
		}
		c.redundancy = bound
	}
	if c.Quota < 1 {
		return c, fmt.Errorf("sim: quota %d must be positive", c.Quota)
	}
	if c.AcceptHorizon < 1 {
		return c, fmt.Errorf("sim: accept horizon %d must be positive", c.AcceptHorizon)
	}
	if c.PoolSamplePerRound < 1 {
		return c, fmt.Errorf("sim: pool sample %d must be positive", c.PoolSamplePerRound)
	}
	if c.UploadBudgetPerRound < 0 {
		return c, fmt.Errorf("sim: upload budget %d must be >= 0", c.UploadBudgetPerRound)
	}
	if c.RepairDelay < 0 {
		return c, fmt.Errorf("sim: repair delay %d must be >= 0", c.RepairDelay)
	}
	if c.Warmup < 0 || c.Warmup >= c.Rounds {
		return c, fmt.Errorf("sim: warmup %d outside [0, rounds)", c.Warmup)
	}
	for _, o := range c.Observers {
		if o.Age < 0 {
			return c, fmt.Errorf("sim: observer %q has negative age", o.Name)
		}
	}
	// Capacity sanity: the population must be able to host all blocks.
	demand := int64(c.NumPeers) * int64(c.TotalBlocks)
	capacity := int64(c.NumPeers) * int64(c.Quota)
	if demand > capacity {
		return c, fmt.Errorf("sim: block demand %d exceeds quota capacity %d", demand, capacity)
	}
	// The ledger packs a slot id and a list index into each 32-bit
	// adjacency entry (overlay.Ledger): the id takes b = bits.Len(slots −
	// 1) bits, a host entry's owner-side index the other 32 − b and a
	// placement's host-side index 31 − b beside the unmetered flag. An
	// owner holds at most n blocks, a host its quota plus one per observer.
	slots := c.NumPeers + len(c.Observers)
	idBits := bits.Len(uint(slots - 1))
	if idBits > 31 {
		return c, fmt.Errorf("sim: %d slots exceed the ledger's 2^31 peer ids", slots)
	}
	if maxFwd := 1 << (32 - idBits); c.TotalBlocks > maxFwd {
		return c, fmt.Errorf("sim: n = %d exceeds the %d blocks an owner's ledger index holds at %d slots", c.TotalBlocks, maxFwd, slots)
	}
	if maxRev := 1 << (31 - idBits); int(c.Quota)+len(c.Observers) > maxRev {
		return c, fmt.Errorf("sim: quota %d + %d observers exceeds the %d blocks a host's ledger index holds at %d slots",
			c.Quota, len(c.Observers), maxRev, slots)
	}
	return c, nil
}
