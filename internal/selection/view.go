package selection

// This file is the selection API: an explicit split between what an
// implementable protocol can OBSERVE about a peer and what only the
// simulator's ORACLE knows, plus the Policy interface strategies
// implement against that split.
//
// Paper mapping:
//
//	§2.1 "peers cannot know lifetimes"   View.Observed vs View.Oracle
//	§2.1 monitoring substrate [17],[14]  Observed.History (availability
//	                                     queries "for a given period of
//	                                     time, for example the last 90
//	                                     days"), fed from
//	                                     monitor.IntervalHistory by the
//	                                     sim engine when something reads
//	                                     it (ReadsHistory)
//	§3.2 acceptance + ranking            Policy.AcceptHorizon, Policy.Score
//	§4.1 oracle baselines                Oracle.Availability/Remaining

import "p2pbackup/internal/rng"

// AvailabilityHistory answers windowed availability queries about one
// peer: the monitoring substrate the paper assumes (AVMON, Pacemaker).
// *monitor.IntervalHistory satisfies it.
type AvailabilityHistory interface {
	// Uptime returns the online fraction over [now-n, now), clamped to
	// the observed span; zero when nothing is recorded.
	Uptime(now int64, n int64) float64
}

// Observed is the knowledge an implementable protocol has about a peer:
// its age (public join time) and its monitored availability history.
type Observed struct {
	// Age is the number of rounds since the peer joined the system.
	Age int64
	// History answers availability window queries for this peer; nil
	// when no monitoring substrate is attached (a caller that knows
	// ages only).
	History AvailabilityHistory
}

// Uptime returns the monitored online fraction over the last window
// rounds before now; ok is false when no history is attached.
func (o Observed) Uptime(now, window int64) (uptime float64, ok bool) {
	if o.History == nil {
		return 0, false
	}
	return o.History.Uptime(now, window), true
}

// Oracle is ground truth only the simulator knows: the peer's true
// long-run availability and its true remaining lifetime. Implementable
// strategies must not read it; the oracle baselines exist precisely to
// bound what perfect knowledge would buy (the ablation-strategy
// experiment; ARCHITECTURE.md, "The selection knowledge split and spec
// grammar").
type Oracle struct {
	// Availability is the peer's true long-run online fraction.
	Availability float64
	// Remaining is the peer's true remaining lifetime in rounds.
	Remaining int64
}

// View is everything a strategy may be told about a candidate or
// acceptor, split by epistemic status.
type View struct {
	// Observed is the implementable knowledge (age, monitored history).
	Observed Observed
	// Oracle is simulator ground truth, for oracle baselines only.
	Oracle Oracle
}

// Context carries run-wide information for one Score call.
type Context struct {
	// Round is the current simulation round; windowed history queries
	// use it as "now".
	Round int64
}

// Policy is the strategy interface: the paper's rule in its two parts.
// Both sides of a partnership accept with AcceptanceFunction of their
// two observed ages at the policy's horizon, and the owner ranks the
// candidates it accepted by Score. Every registered strategy is one of
// two shapes: the paper's function at some horizon, or "accept
// everyone" (horizon 0) and rank.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// AcceptHorizon is the horizon L at which both sides of a
	// partnership accept with AcceptanceFunction of their two observed
	// ages; 0 means the policy accepts every partnership.
	AcceptHorizon() int64
	// Score ranks a candidate for selection by an owner; higher is
	// preferred. It must be a pure function of its arguments, reading
	// nothing but ctx and the View and keeping no state: planners call
	// it concurrently and in no fixed order.
	Score(ctx Context, candidate View) float64
}

// historyBlind is the optional marker a Policy implements to declare
// that its Score never reads Observed.History: it gives the same
// result, bit for bit, with any history attached or none. Acceptance
// reads ages only, so the declaration covers the whole policy.
type historyBlind interface{ IgnoresHistory() bool }

// ReadsHistory reports whether a policy may read Observed.History: true
// unless it declares (via an `IgnoresHistory() bool` method) that it
// never does. A caller keeps availability histories only for a policy
// that reads them, and a policy without the marker — any custom one —
// is conservatively taken to read them.
func ReadsHistory(p Policy) bool {
	hb, ok := p.(historyBlind)
	return !ok || !hb.IgnoresHistory()
}

// ageScorer is the second optional marker: a Policy implements it to
// declare that its Score reads nothing but Observed.Age clamped to
// [0, AcceptHorizon()], so that it gives the same result, bit for bit,
// for every View and Context whose age clamps alike (ScoreTable).
type ageScorer interface{ ScoresClampedAge() bool }

// ScoreTable returns a policy's Score as a table over the clamped age:
// L+1 entries, L = p.AcceptHorizon(), whose entry clamp(a) — clamp as
// in AcceptTable — is p.Score itself on a View of age a, for a policy
// that declares (via a `ScoresClampedAge() bool` method) that its
// Score reads that and nothing else. A policy without the declaration,
// and any wrapper that does not forward it, gets nil: the caller scores
// through Score. maintenance's sampling loop reads its accepted
// candidates' scores from the table, beside the acceptance it reads
// from AcceptTable at the same clamped ages.
func ScoreTable(p Policy) []float64 {
	if as, ok := p.(ageScorer); !ok || !as.ScoresClampedAge() {
		return nil
	}
	tab := make([]float64, p.AcceptHorizon()+1)
	for a := range tab {
		tab[a] = p.Score(Context{}, View{Observed: Observed{Age: int64(a)}})
	}
	return tab
}

// AcceptTable returns a policy's acceptance as a table over two ages:
// 2L+1 entries, L = p.AcceptHorizon(), whose entry
//
//	L + clamp(acceptor.Observed.Age) − clamp(requester.Observed.Age)
//
// with clamp(a) = min(max(a, 0), L) is AcceptanceFunction of the two
// ages at L, bit for bit (after clamping it depends on the difference
// alone). A policy that accepts everyone has the one-entry table {1},
// where every age clamps to 0. A caller negotiating many candidates
// (maintenance's sampling loop) reads two entries per pair instead of
// building two Views; AgreeCtx stays the reference definition.
func AcceptTable(p Policy) []float64 {
	L := p.AcceptHorizon()
	if L == 0 {
		return []float64{1}
	}
	tab := make([]float64, 2*L+1)
	for d := -L; d <= L; d++ {
		tab[L+d] = AcceptanceFunction(max(d, 0), max(-d, 0), L)
	}
	return tab
}

// AgreeCtx draws both directions of a partnership under a Policy: the
// owner must accept the candidate and the candidate must accept the
// owner, each with AcceptanceFunction of the two observed ages at the
// policy's horizon; a policy that accepts everyone draws nothing.
// Acceptance reads nothing of the Context. A direction whose
// probability is exactly one consumes no randomness (rng.Bool
// guarantees that).
func AgreeCtx(r *rng.Rand, p Policy, _ Context, owner, candidate View) bool {
	L := p.AcceptHorizon()
	if L == 0 {
		return true
	}
	if pr := AcceptanceFunction(owner.Observed.Age, candidate.Observed.Age, L); pr < 1 && !r.Bool(pr) {
		return false
	}
	pr := AcceptanceFunction(candidate.Observed.Age, owner.Observed.Age, L)
	return pr >= 1 || r.Bool(pr)
}
