package churn

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"p2pbackup/internal/rng"
)

// AvailabilityModel generates alternating online/offline session lengths
// (in whole rounds, always >= 1) whose long-run online fraction matches
// a target availability. Implementations must be stateless; all
// randomness comes from the caller's generator.
type AvailabilityModel interface {
	// SessionLength draws the length of the next session. online says
	// whether the session being entered is an online one.
	SessionLength(r *rng.Rand, availability float64, online bool) int64
	// Name identifies the model in reports.
	Name() string
}

// SessionModel draws exponential session lengths with a configurable
// mean on+off cycle: mean online session = availability x MeanCycle,
// mean offline session = (1-availability) x MeanCycle. This matches the
// diurnal reality of home machines better than per-round coin flips and
// keeps state transitions (the expensive events in the simulator) rare.
type SessionModel struct {
	// MeanCycle is the expected length of one on+off cycle in rounds.
	// The default used by the simulator is one day (24 rounds).
	MeanCycle float64
}

// DefaultSessionModel returns a SessionModel with a one-day mean cycle.
func DefaultSessionModel() SessionModel { return SessionModel{MeanCycle: Day} }

// Name implements AvailabilityModel.
func (m SessionModel) Name() string { return fmt.Sprintf("session(cycle=%g)", m.MeanCycle) }

// SessionLength draws ceil(Exp(mean)) with the per-state mean.
func (m SessionModel) SessionLength(r *rng.Rand, availability float64, online bool) int64 {
	mean := m.MeanCycle * availability
	if !online {
		mean = m.MeanCycle * (1 - availability)
	}
	if mean <= 0 {
		// Degenerate states (availability 0 or 1): one-round stub; the
		// scheduler immediately re-enters the other state.
		return 1
	}
	u := 1 - r.Float64()
	v := float64(-math.Log(u) * mean)
	if v < 1 {
		return 1
	}
	if v >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(v + 0.5)
}

// BernoulliModel reproduces independent per-round coin flips: run
// lengths of a Bernoulli(a) sequence are geometric, so online sessions
// are Geometric(1-a) and offline sessions Geometric(a). Provided for
// the availability-model ablation (the ablation-availability
// experiment).
type BernoulliModel struct{}

// Name implements AvailabilityModel.
func (BernoulliModel) Name() string { return "bernoulli" }

// SessionLength draws a geometric run length.
func (BernoulliModel) SessionLength(r *rng.Rand, availability float64, online bool) int64 {
	p := 1 - availability // probability the online run ends each round
	if !online {
		p = availability
	}
	if p <= 0 {
		return math.MaxInt64 // the state never exits
	}
	if p >= 1 {
		return 1
	}
	u := 1 - r.Float64()
	v := math.Ceil(math.Log(u) / math.Log(1-p))
	if v < 1 {
		return 1
	}
	return int64(v)
}

// AlwaysOnline never leaves the online state; used for observers and
// availability-oracle baselines.
type AlwaysOnline struct{}

// Name implements AvailabilityModel.
func (AlwaysOnline) Name() string { return "always-online" }

// SessionLength pins the peer online forever.
func (AlwaysOnline) SessionLength(_ *rng.Rand, _ float64, online bool) int64 {
	if online {
		return math.MaxInt64
	}
	return 1
}

// errUnknownModel reports an unrecognised model name.
var errUnknownModel = errors.New("churn: unknown availability model")

// ModelByName resolves a model from its CLI name: "session",
// "bernoulli", "always-online", or "diurnal"/"diurnal:AMP" (a day/night
// cycle of the given amplitude over the session model).
func ModelByName(name string) (AvailabilityModel, error) {
	switch name {
	case "session", "":
		return DefaultSessionModel(), nil
	case "bernoulli":
		return BernoulliModel{}, nil
	case "always-online":
		return AlwaysOnline{}, nil
	}
	if name == "diurnal" || strings.HasPrefix(name, "diurnal:") {
		return parseDiurnalName(name)
	}
	return nil, fmt.Errorf("%w: %q", errUnknownModel, name)
}

// StationaryOnlineFraction estimates the long-run online fraction the
// model produces for a given availability by simulating sessions. Used
// in tests and calibration, not on the simulator hot path.
func StationaryOnlineFraction(m AvailabilityModel, availability float64, r *rng.Rand, cycles int) float64 {
	var on, total int64
	online := true
	for i := 0; i < cycles*2; i++ {
		l := m.SessionLength(r, availability, online)
		// Cap absurd lengths so immortal states do not overflow.
		if l > 1<<40 {
			l = 1 << 40
		}
		if online {
			on += l
		}
		total += l
		online = !online
	}
	return float64(on) / float64(total)
}
