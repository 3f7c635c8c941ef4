package sim

import "time"

// PhaseTimes is a run's cumulative per-phase wall-time breakdown,
// collected when Config.PhaseTimes is set (the p2psim -phasetimes
// flag). The buckets cover a round end to end in engine order; their
// sum is the time spent inside stepRound. Collection never changes a
// trajectory — it only reads the clock at phase boundaries.
type PhaseTimes struct {
	// Walk covers the churn phases: shocks, restore demand, replay
	// application and the walk itself (one goroutine per shard).
	Walk time.Duration
	// Merge covers the round barrier: the canonical merge of the walk's
	// effect logs.
	Merge time.Duration
	// TransferDrain covers due transfer completions (bandwidth mode).
	TransferDrain time.Duration
	// Evaluation covers the adaptive-redundancy evaluation phase.
	Evaluation time.Duration
	// Maintenance covers the maintenance phase (plan and apply),
	// observer actions and round-end accounting.
	Maintenance time.Duration
}

// phaseStart opens a phase-timing lap; the zero time when accounting is
// off.
func (s *Simulation) phaseStart() time.Time {
	if !s.cfg.PhaseTimes {
		return time.Time{}
	}
	return time.Now()
}

// phaseLap adds the time since *t to *d and restarts the lap. A no-op
// (two branch instructions on the hot path) when accounting is off.
func (s *Simulation) phaseLap(d *time.Duration, t *time.Time) {
	if !s.cfg.PhaseTimes {
		return
	}
	now := time.Now()
	*d += now.Sub(*t)
	*t = now
}
