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
//	§3.2 acceptance + ranking            Policy.AcceptProb, Policy.Score
//	§4.1 oracle baselines                Oracle.Availability/Remaining

import "p2pbackup/internal/rng"

// AvailabilityHistory answers windowed availability queries about one
// peer: the monitoring substrate the paper assumes (AVMON, Pacemaker).
// *monitor.IntervalHistory satisfies it.
type AvailabilityHistory interface {
	// Uptime returns the online fraction over [now-n, now), clamped to
	// the observed span; zero when nothing is recorded.
	Uptime(now int64, n int64) float64
	// ObservedSince returns the first observed round; ok is false if the
	// peer was never observed.
	ObservedSince() (round int64, ok bool)
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

// Context carries run-wide information for one AcceptProb/Score call.
type Context struct {
	// Round is the current simulation round; windowed history queries
	// use it as "now".
	Round int64
}

// Policy is the strategy interface: it decides partnerships and ranks
// candidates from a View, with the Context supplying the current round
// for window queries.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// AcceptProb returns the probability that acceptor agrees to a
	// partnership requested by requester.
	AcceptProb(ctx Context, acceptor, requester View) float64
	// Score ranks a candidate for selection by an owner; higher is
	// preferred.
	Score(ctx Context, candidate View) float64
}

// alwaysAccepter is the optional marker a Policy implements to declare
// AcceptProb constantly one, letting AgreeCtx skip the acceptance
// evaluation entirely.
type alwaysAccepter interface{ AlwaysAccepts() bool }

// acceptsAll reports whether a policy declares (via an
// `AlwaysAccepts() bool` method) that it accepts every partnership.
func acceptsAll(p Policy) bool {
	aa, ok := p.(alwaysAccepter)
	return ok && aa.AlwaysAccepts()
}

// pureScorer is the optional marker a Policy implements to declare its
// Score a pure function of its arguments: no internal state, no
// randomness, no reads beyond the Context and View. Pure scores may be
// memoised per (peer, round) by the caller; every policy shipped by
// this package is pure and declares it.
type pureScorer interface{ PureScore() bool }

// HasPureScore reports whether a policy declares (via a
// `PureScore() bool` method) that Score is a pure function of
// (Context, View). Callers use it to gate score caching; policies
// without the marker are conservatively treated as stateful and
// re-evaluated on every call.
func HasPureScore(p Policy) bool {
	ps, ok := p.(pureScorer)
	return ok && ps.PureScore()
}

// historyBlind is the optional marker a Policy implements to declare
// that neither its Score nor its AcceptProb ever reads
// Observed.History: both give the same result, bit for bit, with any
// history attached or none.
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

// ageKeyed is the optional capability a Policy implements to declare
// that its AcceptProb is AcceptanceFunction of the two observed ages
// with horizon AcceptHorizon(), and reads nothing else: not the
// Context, not a History, not the Oracle.
type ageKeyed interface{ AcceptHorizon() int64 }

// AcceptTable returns a policy's acceptance as a table over two ages,
// when two ages are all it reads. The table has 2L+1 entries, L =
// (len − 1) / 2, and with clamp(a) = min(max(a, 0), L) its entry
//
//	L + clamp(acceptor.Observed.Age) − clamp(requester.Observed.Age)
//
// is AcceptProb(ctx, acceptor, requester) bit for bit, for every ctx
// and whatever else the Views carry. That is exact for the paper's
// function, which after clamping depends on the difference alone.
//
// A policy that declares a horizon (an `AcceptHorizon() int64` method)
// gets that function's table at it; one that accepts everyone
// (AlwaysAccepts) the one-entry table {1}, where every age clamps to 0;
// any other policy none (nil), and a caller negotiates with it through
// AgreeCtx on Views. A caller negotiating many candidates
// (maintenance's sampling loop) reads two entries per pair instead of
// building two Views and calling the policy twice. AgreeCtx does not
// use it: it stays the reference definition of an agreement.
func AcceptTable(p Policy) []float64 {
	if acceptsAll(p) {
		return []float64{1}
	}
	ak, ok := p.(ageKeyed)
	if !ok {
		return nil
	}
	L := ak.AcceptHorizon()
	tab := make([]float64, 2*L+1)
	for d := -L; d <= L; d++ {
		tab[L+d] = AcceptanceFunction(max(d, 0), max(-d, 0), L)
	}
	return tab
}

// AgreeCtx draws both directions of a partnership under a Policy: the
// owner must accept the candidate and the candidate must accept the
// owner. Acceptance probabilities of exactly one are short-circuited
// without consuming randomness (rng.Bool already guarantees that), and
// always-accept policies (AlwaysAccepts) skip the evaluation entirely.
func AgreeCtx(r *rng.Rand, p Policy, ctx Context, owner, candidate View) bool {
	if acceptsAll(p) {
		return true
	}
	if pr := p.AcceptProb(ctx, owner, candidate); pr < 1 && !r.Bool(pr) {
		return false
	}
	pr := p.AcceptProb(ctx, candidate, owner)
	return pr >= 1 || r.Bool(pr)
}
