package churn

import (
	"errors"
	"fmt"
	"math"

	"p2pbackup/internal/rng"
	"p2pbackup/internal/spec"
)

// AvailabilityModel generates alternating online/offline session lengths
// (in whole rounds, always >= 1) whose long-run online fraction matches
// a target availability. Implementations must be stateless; all
// randomness comes from the caller's generator.
type AvailabilityModel interface {
	// SessionLength draws the length of the next session. online says
	// whether the session being entered is an online one, round the
	// round it starts in; only the diurnal model reads the round.
	//
	// The engine draws at flip time: a session length is sampled in the
	// round the session actually starts (the slot's toggle wakes it
	// through the calendar queue), never precomputed when the previous
	// session began, and the draw order across peers is the
	// ascending-slot order of the round's due toggles.
	SessionLength(r *rng.Rand, availability float64, online bool, round int64) int64
}

// ErrUnknownModel reports an availability spec whose name is not known.
var ErrUnknownModel = errors.New("churn: unknown availability model")

// ErrBadSpec reports a known availability model given malformed,
// unknown or out-of-range parameters.
var ErrBadSpec = errors.New("churn: bad availability spec")

// ParseAvailability resolves an availability spec in the NAME[:PARAMS]
// grammar of package spec: "" or "session" (exponential sessions over a
// one-day mean cycle, the default), "bernoulli", "always-online", or
// "diurnal" ("diurnal:0.8", "diurnal:amp=0.8"; a day/night cycle of the
// given amplitude in [0, 1], default 0.6, over the session model).
// Unknown names wrap ErrUnknownModel; bad parameters wrap ErrBadSpec.
func ParseAvailability(s string) (AvailabilityModel, error) {
	if s == "" {
		return sessionModel{}, nil
	}
	return spec.Parse(s, availTable, struct{}{}, ErrUnknownModel, ErrBadSpec)
}

// AvailabilityNames lists the model names ParseAvailability accepts, in
// table order.
func AvailabilityNames() []string { return spec.Names(availTable) }

// availTable is every availability model name, in the order the
// unknown-name error lists them.
var availTable = []spec.Entry[struct{}, AvailabilityModel]{
	{Name: "session", Build: func(*spec.Params, struct{}) (AvailabilityModel, error) { return sessionModel{}, nil }},
	{Name: "bernoulli", Build: func(*spec.Params, struct{}) (AvailabilityModel, error) { return bernoulliModel{}, nil }},
	{Name: "always-online", Build: func(*spec.Params, struct{}) (AvailabilityModel, error) { return alwaysOnline{}, nil }},
	{Name: "diurnal", Build: func(p *spec.Params, _ struct{}) (AvailabilityModel, error) {
		amp := p.FloatPrimary("amp", 0.6) // a visible but not total day/night swing
		if !(amp >= 0 && amp <= 1) {      // negated, so NaN fails too
			return nil, fmt.Errorf("%w: diurnal amplitude %v outside [0,1]", ErrBadSpec, amp)
		}
		return diurnalModel{amplitude: amp}, nil
	}},
}

// meanCycle is the session model's expected on+off cycle: one day.
const meanCycle = Day

// sessionModel draws exponential session lengths over a one-day mean
// cycle: mean online session = availability x meanCycle, mean offline
// session = (1-availability) x meanCycle. This matches the diurnal
// reality of home machines better than per-round coin flips and keeps
// state transitions (the expensive events in the simulator) rare.
type sessionModel struct{}

// SessionLength draws ceil(Exp(mean)) with the per-state mean.
func (sessionModel) SessionLength(r *rng.Rand, availability float64, online bool, _ int64) int64 {
	mean := meanCycle * availability
	if !online {
		mean = meanCycle * (1 - availability)
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

// bernoulliModel reproduces independent per-round coin flips: run
// lengths of a Bernoulli(a) sequence are geometric, so online sessions
// are Geometric(1-a) and offline sessions Geometric(a). Provided for
// the availability-model ablation (the ablation-availability
// experiment).
type bernoulliModel struct{}

// SessionLength draws a geometric run length.
func (bernoulliModel) SessionLength(r *rng.Rand, availability float64, online bool, _ int64) int64 {
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

// alwaysOnline never leaves the online state; used for observers and
// availability-oracle baselines.
type alwaysOnline struct{}

// SessionLength pins the peer online forever.
func (alwaysOnline) SessionLength(_ *rng.Rand, _ float64, online bool, _ int64) int64 {
	if online {
		return math.MaxInt64
	}
	return 1
}
