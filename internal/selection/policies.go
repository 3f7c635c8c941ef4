package selection

// The Policy implementations. The paper's strategy and its four
// baselines read only the knowledge class they are entitled to —
// age-based, random and youngest-first touch View.Observed exclusively,
// the two oracles read View.Oracle — making the epistemic status of
// every baseline explicit in code rather than in comments. The
// estimator-backed and monitored-availability policies are the other
// implementable strategies: they rank by a lifetime.Estimator applied
// to observed age (Dell'Amico et al.; Skowron & Rzadca rank peers the
// same way) or by the monitored availability window the paper's
// secure-monitoring substrate provides.

import (
	"fmt"

	"p2pbackup/internal/lifetime"
)

// ---------------------------------------------------------------------------
// Observable baselines

// agePolicy is the paper's strategy: probabilistic acceptance via the
// acceptance function with horizon L, ranking by observed age capped
// at L.
type agePolicy struct{ L int64 }

func (a agePolicy) Name() string { return fmt.Sprintf("age(L=%d)", a.L) }

func (a agePolicy) AcceptHorizon() int64 { return a.L }

// IgnoresHistory declares that the paper's strategy reads ages only.
func (a agePolicy) IgnoresHistory() bool { return true }

func (a agePolicy) Score(_ Context, candidate View) float64 {
	age := candidate.Observed.Age
	if age > a.L {
		age = a.L
	}
	if age < 0 {
		age = 0
	}
	return float64(age)
}

// randomPolicy accepts everyone and ranks uniformly (pool order,
// already random, decides): the placement a system with no lifetime
// information would do.
type randomPolicy struct{}

func (randomPolicy) Name() string                { return "random" }
func (randomPolicy) AcceptHorizon() int64        { return 0 }
func (randomPolicy) Score(Context, View) float64 { return 0 }
func (randomPolicy) IgnoresHistory() bool        { return true }

// youngestPolicy ranks youngest first: the adversarial baseline. If the
// age signal carries information, it must perform WORSE than random.
type youngestPolicy struct{}

func (youngestPolicy) Name() string                    { return "youngest-first" }
func (youngestPolicy) AcceptHorizon() int64            { return 0 }
func (youngestPolicy) Score(_ Context, c View) float64 { return -float64(c.Observed.Age) }
func (youngestPolicy) IgnoresHistory() bool            { return true }

// ---------------------------------------------------------------------------
// Oracle baselines (the only policies that may read View.Oracle)

// availOraclePolicy ranks by true availability: an unimplementable
// upper bound that ignores lifetimes.
type availOraclePolicy struct{}

func (availOraclePolicy) Name() string                    { return "availability-oracle" }
func (availOraclePolicy) AcceptHorizon() int64            { return 0 }
func (availOraclePolicy) Score(_ Context, c View) float64 { return c.Oracle.Availability }
func (availOraclePolicy) IgnoresHistory() bool            { return true }

// lifetimeOraclePolicy ranks by true remaining lifetime, the quantity
// every observable strategy merely estimates. Its gap to the age policy
// measures how much the estimate loses; its gap to random measures how
// much lifetime-aware placement can possibly win.
type lifetimeOraclePolicy struct{}

func (lifetimeOraclePolicy) Name() string                    { return "lifetime-oracle" }
func (lifetimeOraclePolicy) AcceptHorizon() int64            { return 0 }
func (lifetimeOraclePolicy) Score(_ Context, c View) float64 { return float64(c.Oracle.Remaining) }
func (lifetimeOraclePolicy) IgnoresHistory() bool            { return true }

// ---------------------------------------------------------------------------
// Estimator-backed ranking

// EstimatorRanked ranks candidates by a lifetime estimator applied to
// their observed age: Score is Est.ExpectedRemaining(age). It accepts
// every partnership (like the oracle baselines, so the comparison
// isolates the ranking). Because every heavy-tailed estimator is
// monotone non-decreasing in age, any EstimatorRanked policy induces
// the same ordering as ranking by raw age — the paper's central claim,
// which the ablation-estimator experiment tests under churn the claim's
// assumptions do and do not hold for.
type EstimatorRanked struct {
	// Est predicts expected remaining lifetime from age.
	Est lifetime.Estimator
	// Label names the policy in reports (e.g. "estimator:pareto").
	Label string
}

// Name implements Policy.
func (e EstimatorRanked) Name() string { return e.Label }

// AcceptHorizon implements Policy: 0, every partnership is accepted.
func (e EstimatorRanked) AcceptHorizon() int64 { return 0 }

// IgnoresHistory declares that the estimate reads the observed age only.
func (e EstimatorRanked) IgnoresHistory() bool { return true }

// Score ranks by estimated remaining lifetime at the observed age.
func (e EstimatorRanked) Score(_ Context, candidate View) float64 {
	age := candidate.Observed.Age
	if age < 0 {
		age = 0
	}
	return e.Est.ExpectedRemaining(float64(age))
}

// ---------------------------------------------------------------------------
// Monitored availability

// MonitoredAvailability ranks candidates by their observed online
// fraction over the last Window rounds, queried from the monitoring
// substrate (the paper's "any peer can query the availability of any
// other peer for a given period of time, for example the last 90
// days"). It is the implementable counterpart of the availability
// oracle: the adaptive-redundancy literature (Dell'Amico et al.) ranks
// peers exactly this way. Candidates without history (or outside the
// simulator) score zero. It is the one shipped policy that reads
// Observed.History, and so the one that does not declare IgnoresHistory.
type MonitoredAvailability struct {
	// Window is the availability query window in rounds; the engine
	// records at most the acceptance horizon, so larger windows clamp.
	Window int64
}

// Name implements Policy.
func (m MonitoredAvailability) Name() string {
	return fmt.Sprintf("monitored-availability(W=%d)", m.Window)
}

// AcceptHorizon implements Policy: 0, every partnership is accepted.
func (m MonitoredAvailability) AcceptHorizon() int64 { return 0 }

// Score ranks by the monitored uptime over the window ending at the
// current round.
func (m MonitoredAvailability) Score(ctx Context, candidate View) float64 {
	up, ok := candidate.Observed.Uptime(ctx.Round, m.Window)
	if !ok {
		return 0
	}
	return up
}
