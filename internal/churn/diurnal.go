package churn

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"p2pbackup/internal/rng"
)

// TimeAware is an optional extension of AvailabilityModel for models
// whose session lengths depend on the absolute round at which the
// session starts (diurnal day/night cycles). The engine consults it
// through SessionLengthAt; plain models are called through
// SessionLength exactly as before, so adding this interface changed no
// existing trajectory.
//
// The event-driven engine still draws at flip time: a session length
// is sampled in the round the session actually starts (the slot's
// toggle wakes it through the calendar queue), never precomputed when
// the previous session began. The round passed here is therefore
// always the session's true starting round, and the draw order across
// peers is the ascending-slot order of the round's due toggles — the
// same order the historical scan engine produced.
type TimeAware interface {
	// SessionLengthAt draws the next session length for a session
	// starting at the given round.
	SessionLengthAt(r *rng.Rand, availability float64, online bool, round int64) int64
}

// SessionLengthAt dispatches to the model's time-aware sampler when it
// has one and to the stateless SessionLength otherwise. The simulation
// engine calls this instead of SessionLength directly.
func SessionLengthAt(m AvailabilityModel, r *rng.Rand, availability float64, online bool, round int64) int64 {
	if ta, ok := m.(TimeAware); ok {
		return ta.SessionLengthAt(r, availability, online, round)
	}
	return m.SessionLength(r, availability, online)
}

// DiurnalModel modulates a base availability model with a day/night
// cycle: the availability a session sees is the peer's profile
// availability scaled by a cosine of the time of day,
//
//	a(t) = clamp(avail * (1 + Amplitude*cos(2*pi*(t-Peak)/Period)), 0, 1)
//
// so sessions starting near the daily peak are long online / short
// offline and sessions starting at night the reverse. The modulation is
// multiplicative per profile: an erratic peer (33% base availability)
// swings through a wide absolute range while a durable peer (95%) is
// clamped near 1 for most of the day — each profile follows the cycle
// relative to its own baseline, as the heterogeneity literature
// (Skowron & Rzadca) observes for home machines.
//
// The phase is global: every peer shares one timezone. That is the
// adversarial case for correlated unavailability — nightly the whole
// population dips at once — and exactly the regime the paper's flat
// i.i.d. availability model cannot express.
type DiurnalModel struct {
	// Base draws session lengths given the modulated availability; nil
	// means DefaultSessionModel.
	Base AvailabilityModel
	// Amplitude in [0, 1] is the relative swing around the base
	// availability; 0 reduces to the base model.
	Amplitude float64
	// Period is the cycle length in rounds; 0 means one day.
	Period int64
	// Peak is the round offset (mod Period) of maximum availability.
	Peak int64
}

// DefaultDiurnalModel returns a one-day cycle with the given amplitude
// over the default session model, peaking at 18:00 (evening, when home
// machines are on).
func DefaultDiurnalModel(amplitude float64) DiurnalModel {
	return DiurnalModel{Amplitude: amplitude, Period: Day, Peak: 18 * Hour}
}

// base returns the wrapped model, defaulting to the session model.
func (m DiurnalModel) base() AvailabilityModel {
	if m.Base != nil {
		return m.Base
	}
	return DefaultSessionModel()
}

// period returns the cycle length, defaulting to one day.
func (m DiurnalModel) period() int64 {
	if m.Period > 0 {
		return m.Period
	}
	return Day
}

// Name implements AvailabilityModel.
func (m DiurnalModel) Name() string {
	return fmt.Sprintf("diurnal(amp=%g,period=%d)/%s", m.Amplitude, m.period(), m.base().Name())
}

// AvailabilityAt returns the modulated availability for a session
// starting at the given round, clamped to [0, 1].
func (m DiurnalModel) AvailabilityAt(availability float64, round int64) float64 {
	period := m.period()
	phase := 2 * math.Pi * float64((round-m.Peak)%period) / float64(period)
	a := availability * (1 + float64(m.Amplitude*math.Cos(phase)))
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// SessionLength implements AvailabilityModel with the unmodulated base
// availability, so a DiurnalModel degrades gracefully when called
// through the stateless interface.
func (m DiurnalModel) SessionLength(r *rng.Rand, availability float64, online bool) int64 {
	return m.base().SessionLength(r, availability, online)
}

// SessionLengthAt implements TimeAware: the base model samples with the
// availability the cycle assigns to the session's starting round.
func (m DiurnalModel) SessionLengthAt(r *rng.Rand, availability float64, online bool, round int64) int64 {
	return m.base().SessionLength(r, m.AvailabilityAt(availability, round), online)
}

// Validate checks the model parameters.
func (m DiurnalModel) Validate() error {
	if !(m.Amplitude >= 0 && m.Amplitude <= 1) { // negated, so NaN fails too
		return fmt.Errorf("churn: diurnal amplitude %v outside [0,1]", m.Amplitude)
	}
	if m.Period < 0 {
		return fmt.Errorf("churn: diurnal period %d negative", m.Period)
	}
	return nil
}

// parseDiurnalName parses the CLI forms "diurnal" and "diurnal:AMP"
// (e.g. "diurnal:0.8") into a default diurnal model.
func parseDiurnalName(name string) (AvailabilityModel, error) {
	amp := 0.6 // a visible but not total day/night swing
	if rest, ok := strings.CutPrefix(name, "diurnal:"); ok {
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("churn: bad diurnal amplitude %q: %v", rest, err)
		}
		amp = v
	}
	m := DefaultDiurnalModel(amp)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
