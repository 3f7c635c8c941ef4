// Package churn models peer behaviour over time: how long peers stay in
// the system (lifetime), and when they are online while they are members
// (availability).
//
// The paper drives its simulation with four behaviour profiles derived
// from file-sharing measurement studies (its Table in section 4.1.1),
// made deliberately "a little more optimistic" because backup users have
// an incentive to stay connected:
//
//	Profile   Proportion  Life expectancy  Availability
//	Durable   10%         unlimited        95%
//	Stable    25%         1.5 - 3.5 years  87%
//	Unstable  30%         3 - 18 months    75%
//	Erratic   35%         1 - 3 months     33%
//
// Since no real backup-system trace exists (none did in 2009 either),
// this package synthesises churn from these profiles; it can also record
// and replay traces so measured data can be substituted without touching
// the simulator.
package churn

import (
	"errors"
	"fmt"
	"math"

	"p2pbackup/internal/dist"
	"p2pbackup/internal/rng"
)

// Time unit conversions. The simulator's base unit is one round = one
// hour (the paper's choice: long enough to cover one full repair).
const (
	Hour  = 1
	Day   = 24 * Hour
	Week  = 7 * Day
	Month = 30 * Day // the paper speaks in calendar-free months
	Year  = 365 * Day
)

// Unlimited marks a profile whose members never leave voluntarily.
const Unlimited = math.MaxInt64

// Profile describes one behaviour class.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Proportion is the fraction of the population in this profile;
	// a ProfileSet's proportions must sum to 1.
	Proportion float64
	// Lifetime samples the total number of rounds a member stays in the
	// system. A nil sampler means unlimited lifetime.
	Lifetime dist.Sampler
	// Availability is the long-run fraction of membership time spent
	// online, in (0, 1].
	Availability float64
}

// ProfileSet is a population mixture of profiles.
type ProfileSet struct {
	profiles []Profile
	cum      []float64 // cumulative proportions for sampling
}

// NewProfileSet validates the profiles (non-empty, proportions sum to 1,
// availabilities in (0, 1]) and returns the mixture.
func NewProfileSet(profiles []Profile) (*ProfileSet, error) {
	if len(profiles) == 0 {
		return nil, errors.New("churn: empty profile set")
	}
	cum := make([]float64, len(profiles))
	sum := 0.0
	for i, p := range profiles {
		if p.Proportion < 0 {
			return nil, fmt.Errorf("churn: profile %q has negative proportion", p.Name)
		}
		if p.Availability <= 0 || p.Availability > 1 {
			return nil, fmt.Errorf("churn: profile %q availability %v outside (0,1]", p.Name, p.Availability)
		}
		sum += p.Proportion
		cum[i] = sum
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("churn: proportions sum to %v, want 1", sum)
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return &ProfileSet{profiles: append([]Profile(nil), profiles...), cum: cum}, nil
}

// PaperProfiles returns the paper's four-profile population, lifetimes
// drawn uniformly within each range, in rounds.
func PaperProfiles() *ProfileSet {
	uniform := func(lo, hi float64) dist.Sampler {
		u, err := dist.NewUniform(lo, hi)
		if err != nil {
			panic(err) // static ranges; cannot fail
		}
		return u
	}
	ps, err := NewProfileSet([]Profile{
		{Name: "durable", Proportion: 0.10, Lifetime: nil, Availability: 0.95},
		{Name: "stable", Proportion: 0.25, Lifetime: uniform(1.5*Year, 3.5*Year), Availability: 0.87},
		{Name: "unstable", Proportion: 0.30, Lifetime: uniform(3*Month, 18*Month), Availability: 0.75},
		{Name: "erratic", Proportion: 0.35, Lifetime: uniform(1*Month, 3*Month), Availability: 0.33},
	})
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return ps
}

// Len returns the number of profiles.
func (ps *ProfileSet) Len() int { return len(ps.profiles) }

// Profile returns profile i.
func (ps *ProfileSet) Profile(i int) Profile { return ps.profiles[i] }

// SampleIndex draws a profile index according to the proportions.
func (ps *ProfileSet) SampleIndex(r *rng.Rand) int {
	u := r.Float64()
	for i, c := range ps.cum {
		if u < c {
			return i
		}
	}
	return len(ps.cum) - 1
}

// SampleLifetime draws a lifetime in rounds for profile i; Unlimited for
// immortal profiles. Lifetimes are clamped to at least one round.
func (ps *ProfileSet) SampleLifetime(r *rng.Rand, i int) int64 {
	p := ps.profiles[i]
	if p.Lifetime == nil {
		return Unlimited
	}
	v := p.Lifetime.Sample(r)
	if v < 1 {
		return 1
	}
	if v >= float64(math.MaxInt64) {
		return Unlimited
	}
	return int64(v)
}
