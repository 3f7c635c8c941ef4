package churn

import (
	"math"

	"p2pbackup/internal/rng"
)

// The diurnal cycle's shape: one day long, peaking at 18:00 (evening,
// when home machines are on).
const (
	diurnalPeriod = Day
	diurnalPeak   = 18 * Hour
)

// diurnalModel modulates the session model with a day/night cycle: the
// availability a session sees is the peer's profile availability scaled
// by a cosine of the time of day,
//
//	a(t) = clamp(avail * (1 + amplitude*cos(2*pi*(t-diurnalPeak)/diurnalPeriod)), 0, 1)
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
type diurnalModel struct {
	// amplitude in [0, 1] is the relative swing around the base
	// availability; 0 reduces to the session model.
	amplitude float64
}

// availabilityAt returns the modulated availability for a session
// starting at the given round, clamped to [0, 1].
func (m diurnalModel) availabilityAt(availability float64, round int64) float64 {
	phase := 2 * math.Pi * float64((round-diurnalPeak)%diurnalPeriod) / float64(diurnalPeriod)
	a := availability * (1 + float64(m.amplitude*math.Cos(phase)))
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// SessionLength draws from the session model with the availability the
// cycle assigns to the session's starting round.
func (m diurnalModel) SessionLength(r *rng.Rand, availability float64, online bool, round int64) int64 {
	return sessionModel{}.SessionLength(r, m.availabilityAt(availability, round), online, round)
}
