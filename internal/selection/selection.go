// Package selection implements partner-selection strategies: the
// paper's age-based acceptance rule plus the baselines the ablation
// experiments compare it against.
//
// The paper's acceptance function (section 3.2), evaluated by peer p1
// when peer p2 asks for a partnership, with s1, s2 their ages and L the
// stability horizon (90 days):
//
//	f(p1, p2) = min((L - (min(s1, L) - min(s2, L)) + 1) / L, 1)
//
// Its stated properties, all tested in this package:
//   - the result is never zero (minimum 1/L, so newcomers are never
//     locked out entirely);
//   - it is exactly one whenever p2 is at least as old as p1 (older
//     peers are always accepted);
//   - it is asymmetric: f(p1, p2) != f(p2, p1) unless both ages exceed L.
//
// Once a pool of mutually accepting candidates exists, the owner ranks
// it and takes the top candidates; the paper ranks by age (oldest
// first). Baselines substitute the ranking and/or acceptance rule.
//
// The package's primary surface is the observable/oracle knowledge
// split in view.go (View, Context, Policy) and the spec-string registry
// in spec.go (Register, Parse); the PeerInfo/Strategy/ByName surface
// below predates the split and is kept as deprecated adapters.
//
// A Policy may declare what a caller is allowed to assume about it,
// through optional methods: AlwaysAccepts (acceptance is constantly
// one: AcceptsAll), PureScore (Score may be memoised: HasPureScore) and
// AgeAccepter (AcceptProb reads the two observed ages and nothing
// else, and can be evaluated from them). A policy declaring none is
// taken at its most general: AgreeCtx on Views, every call evaluated.
//
// Paper mapping:
//
//	§3.2 acceptance function f(p1,p2)   AcceptanceFunction
//	§3.2 rank by age, capped at L       the "age" spec (agePolicy; its
//	                                    acceptance is age-keyed: AgeAccepter)
//	§4.1 baseline comparisons           "random", the oracles,
//	                                    "youngest-first" specs
//	§2.1 lifetime estimation            "estimator:*" specs ranking by
//	                                    a lifetime.Estimator
//	§2.1 availability monitoring        "monitored-availability" spec
//	                                    over Observed.History
package selection

import (
	"errors"
	"fmt"

	"p2pbackup/internal/rng"
)

// PeerInfo carries what a strategy may know about a peer, flattened
// into one struct. Age is the only field an implementable protocol can
// observe; Availability and Remaining are ground truth that only the
// oracle baselines read.
//
// Deprecated: the View type makes that epistemic split explicit
// (Observed vs Oracle) and adds monitored-availability queries; new
// code should consume View.
type PeerInfo struct {
	// Age is the number of rounds since the peer joined the system.
	Age int64
	// Availability is the peer's true long-run online fraction.
	Availability float64
	// Remaining is the peer's true remaining lifetime in rounds.
	Remaining int64
}

// Strategy decides partnerships and ranks candidates from a flat
// PeerInfo.
//
// Deprecated: implement Policy, which separates observable from oracle
// knowledge and receives the round context for window queries; lift
// legacy implementations with Adapt.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// AcceptProb returns the probability that acceptor agrees to a
	// partnership requested by requester.
	AcceptProb(acceptor, requester PeerInfo) float64
	// Score ranks a candidate for selection by an owner; higher is
	// preferred.
	Score(candidate PeerInfo) float64
}

// Agree draws both directions of a partnership: the owner must accept
// the candidate and the candidate must accept the owner. Acceptance
// probabilities of exactly one consume no randomness, and strategies
// declaring AcceptsAll skip the evaluation entirely.
//
// Deprecated: use AgreeCtx with a Policy.
func Agree(r *rng.Rand, s Strategy, owner, candidate PeerInfo) bool {
	if AcceptsAll(s) {
		return true
	}
	if p := s.AcceptProb(owner, candidate); p < 1 && !r.Bool(p) {
		return false
	}
	p := s.AcceptProb(candidate, owner)
	return p >= 1 || r.Bool(p)
}

// ---------------------------------------------------------------------------
// Age-based (the paper)

// AgeBased is the paper's strategy: probabilistic acceptance via the
// acceptance function with horizon L, ranking by age capped at L.
type AgeBased struct {
	// L is the stability horizon in rounds (the paper uses 90 days).
	L int64
}

// Name implements Strategy.
func (a AgeBased) Name() string { return fmt.Sprintf("age(L=%d)", a.L) }

// AcceptProb evaluates the paper's acceptance function.
func (a AgeBased) AcceptProb(acceptor, requester PeerInfo) float64 {
	return AcceptanceFunction(acceptor.Age, requester.Age, a.L)
}

// PureScore declares Score a pure function of its arguments.
func (a AgeBased) PureScore() bool { return true }

// Score ranks candidates by capped age, oldest first.
func (a AgeBased) Score(candidate PeerInfo) float64 {
	age := candidate.Age
	if age > a.L {
		age = a.L
	}
	if age < 0 {
		age = 0
	}
	return float64(age)
}

// AcceptanceFunction is the paper's f(p1, p2) for acceptor age s1,
// requester age s2 and horizon L. It panics if L <= 0.
func AcceptanceFunction(s1, s2, L int64) float64 {
	if L <= 0 {
		panic("selection: acceptance horizon must be positive")
	}
	if s1 < 0 {
		s1 = 0
	}
	if s2 < 0 {
		s2 = 0
	}
	if s1 > L {
		s1 = L
	}
	if s2 > L {
		s2 = L
	}
	v := float64(L-(s1-s2)+1) / float64(L)
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Baselines

// Random accepts everyone and ranks uniformly: the placement a system
// with no lifetime information would do.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// AcceptProb always accepts.
func (Random) AcceptProb(_, _ PeerInfo) float64 { return 1 }

// Score is constant; pool order (already random) decides.
func (Random) Score(PeerInfo) float64 { return 0 }

// AlwaysAccepts declares the constant acceptance for Agree's fast path.
func (Random) AlwaysAccepts() bool { return true }

// PureScore declares Score a pure function of its arguments.
func (Random) PureScore() bool { return true }

// AvailabilityOracle accepts everyone and ranks by true availability -
// an unimplementable upper bound that ignores lifetimes.
type AvailabilityOracle struct{}

// Name implements Strategy.
func (AvailabilityOracle) Name() string { return "availability-oracle" }

// AcceptProb always accepts.
func (AvailabilityOracle) AcceptProb(_, _ PeerInfo) float64 { return 1 }

// Score is the true availability.
func (AvailabilityOracle) Score(c PeerInfo) float64 { return c.Availability }

// AlwaysAccepts declares the constant acceptance for Agree's fast path.
func (AvailabilityOracle) AlwaysAccepts() bool { return true }

// PureScore declares Score a pure function of its arguments.
func (AvailabilityOracle) PureScore() bool { return true }

// LifetimeOracle accepts everyone and ranks by true remaining lifetime,
// the quantity age merely estimates. The gap between LifetimeOracle and
// AgeBased measures how much the estimate loses; the gap between
// LifetimeOracle and Random measures how much lifetime-aware placement
// can possibly win.
type LifetimeOracle struct{}

// Name implements Strategy.
func (LifetimeOracle) Name() string { return "lifetime-oracle" }

// AcceptProb always accepts.
func (LifetimeOracle) AcceptProb(_, _ PeerInfo) float64 { return 1 }

// Score is the true remaining lifetime.
func (LifetimeOracle) Score(c PeerInfo) float64 { return float64(c.Remaining) }

// AlwaysAccepts declares the constant acceptance for Agree's fast path.
func (LifetimeOracle) AlwaysAccepts() bool { return true }

// PureScore declares Score a pure function of its arguments.
func (LifetimeOracle) PureScore() bool { return true }

// YoungestFirst is the adversarial baseline: rank youngest first. If
// the age signal carries information, this must perform WORSE than
// Random.
type YoungestFirst struct{}

// Name implements Strategy.
func (YoungestFirst) Name() string { return "youngest-first" }

// AcceptProb always accepts.
func (YoungestFirst) AcceptProb(_, _ PeerInfo) float64 { return 1 }

// Score is the negated age.
func (YoungestFirst) Score(c PeerInfo) float64 { return -float64(c.Age) }

// AlwaysAccepts declares the constant acceptance for Agree's fast path.
func (YoungestFirst) AlwaysAccepts() bool { return true }

// PureScore declares Score a pure function of its arguments.
func (YoungestFirst) PureScore() bool { return true }

// ---------------------------------------------------------------------------
// Legacy name resolution

// ErrUnknownStrategy reports an unrecognised strategy name.
var ErrUnknownStrategy = errors.New("selection: unknown strategy")

// ByName resolves a strategy from its spec name, projecting the result
// onto the legacy Strategy interface. The l argument is the default
// horizon for every spec that takes one (age's L, estimator:age's L,
// monitored-availability's window) — it is no longer silently dropped
// for non-age strategies — and explicit spec parameters override it.
// Unknown names wrap ErrUnknownStrategy; unknown or misplaced
// parameters wrap ErrBadSpec.
//
// Deprecated: use Parse or ParseWith, which return the Policy surface.
func ByName(name string, l int64) (Strategy, error) {
	pol, err := ParseWith(name, Defaults{Horizon: l})
	if err != nil {
		return nil, err
	}
	// Preserve the historical concrete types for the original names so
	// long-standing callers can still type-assert.
	switch p := pol.(type) {
	case agePolicy:
		return AgeBased{L: p.L}, nil
	case randomPolicy:
		return Random{}, nil
	case availOraclePolicy:
		return AvailabilityOracle{}, nil
	case lifetimeOraclePolicy:
		return LifetimeOracle{}, nil
	case youngestPolicy:
		return YoungestFirst{}, nil
	}
	return AsStrategy(pol), nil
}
