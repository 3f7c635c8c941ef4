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
// The package's surface is the observable/oracle knowledge split in
// view.go (View, Context, Policy), the policies in policies.go and the
// spec-string table in spec.go (Parse, Names): every strategy has one
// implementation, reached by its spec name.
//
// A Policy states everything a caller may assume about it: a name, an
// acceptance horizon (acceptance is AcceptanceFunction of the two
// observed ages at that horizon, or everyone when it is 0, and so a
// table over two ages: AcceptTable) and a pure Score. Two declarations
// are optional. IgnoresHistory says Score never reads Observed.History,
// so a caller need not record one (ReadsHistory); a policy without it is
// taken to read histories. ScoresClampedAge says Score reads only
// Observed.Age clamped at the acceptance horizon, so it is a table over
// that age (ScoreTable); a policy without it is scored through Score.
//
// Paper mapping:
//
//	§3.2 acceptance function f(p1,p2)   AcceptanceFunction
//	§3.2 rank by age, capped at L       the "age" spec (agePolicy; its
//	                                    acceptance: AcceptTable)
//	§4.1 baseline comparisons           "random", the oracles,
//	                                    "youngest-first" specs
//	§2.1 lifetime estimation            "estimator:*" specs ranking by
//	                                    a lifetime.Estimator
//	§2.1 availability monitoring        "monitored-availability" spec
//	                                    over Observed.History
package selection

import "errors"

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

// ErrUnknownStrategy reports an unrecognised strategy name.
var ErrUnknownStrategy = errors.New("selection: unknown strategy")
