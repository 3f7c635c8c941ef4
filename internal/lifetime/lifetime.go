// Package lifetime implements peer-lifetime estimation, the paper's
// selection criterion.
//
// Studies of deployed peer-to-peer systems (Bustamante & Qiao 2003;
// Maymounkov & Mazieres 2002; Tian & Dai 2007 - the paper's refs
// [5, 16, 23]) observe that peer lifetimes are heavy-tailed: the longer
// a peer has already been in the system, the longer it is expected to
// stay. For a Pareto(xm, alpha) lifetime the conditional expected
// remaining lifetime at age t >= xm is t/(alpha-1) - it GROWS linearly
// with age. The paper exploits this by ranking peers on age alone,
// which is monotone in every lifetime estimate derived from a
// heavy-tailed model, so no fitted parameters are needed at selection
// time.
//
// This package provides:
//   - ParetoModel: a fitted Pareto lifetime model (MLE), with survival,
//     hazard, and conditional remaining-lifetime queries;
//   - Estimator: the interface the selection strategies consume;
//   - AgeRank: the paper's non-parametric estimator (expected remaining
//     lifetime is any increasing function of age);
//   - EmpiricalModel: a distribution-free estimator backed by observed
//     lifetimes, for validating the Pareto assumption.
package lifetime

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"p2pbackup/internal/stats"
)

// Estimator predicts how much longer a peer of a given age will remain,
// in the same time unit ages are measured in. Implementations must be
// monotone non-decreasing in age for ages past their scale floor; that
// monotonicity is what makes "sort by age" a valid selection rule.
type Estimator interface {
	// ExpectedRemaining returns E[lifetime - age | lifetime > age].
	ExpectedRemaining(age float64) float64
}

// errNoSamples reports a fit attempted on insufficient data.
var errNoSamples = errors.New("lifetime: not enough samples to fit")

// ---------------------------------------------------------------------------
// Pareto model

// ParetoModel is a Pareto(xm, alpha) lifetime distribution.
type ParetoModel struct {
	Xm    float64 // scale (minimum lifetime)
	Alpha float64 // tail exponent
}

// FitPareto computes the maximum-likelihood Pareto fit to observed
// complete lifetimes: xm = min(x), alpha = n / sum(ln(x/xm)).
func FitPareto(samples []float64) (ParetoModel, error) {
	if len(samples) < 2 {
		return ParetoModel{}, fmt.Errorf("%w: got %d", errNoSamples, len(samples))
	}
	xm := math.Inf(1)
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) {
			return ParetoModel{}, fmt.Errorf("lifetime: non-positive sample %v", x)
		}
		if x < xm {
			xm = x
		}
	}
	var logSum float64
	for _, x := range samples {
		logSum += math.Log(x / xm)
	}
	if logSum == 0 {
		return ParetoModel{}, errors.New("lifetime: degenerate samples (all equal)")
	}
	return ParetoModel{Xm: xm, Alpha: float64(len(samples)) / logSum}, nil
}

// Survival returns P(T > t).
func (m ParetoModel) Survival(t float64) float64 {
	if t <= m.Xm {
		return 1
	}
	return math.Pow(m.Xm/t, m.Alpha)
}

// Hazard returns the hazard rate f(t)/S(t) = alpha/t for t >= xm.
// A decreasing hazard is the signature of "older peers die less":
// new-user infant mortality dominates.
func (m ParetoModel) Hazard(t float64) float64 {
	if t < m.Xm {
		return 0
	}
	return m.Alpha / t
}

// ExpectedRemaining returns E[T - t | T > t]; +Inf when alpha <= 1.
func (m ParetoModel) ExpectedRemaining(age float64) float64 {
	if m.Alpha <= 1 {
		return math.Inf(1)
	}
	s := math.Max(age, m.Xm)
	return s*m.Alpha/(m.Alpha-1) - age
}

// QuantileRemaining returns the q-quantile of the remaining lifetime at
// the given age (q in [0,1)). Unlike the mean it is finite for any
// alpha > 0, so it is usable for very heavy tails.
func (m ParetoModel) QuantileRemaining(age float64, q float64) float64 {
	if q < 0 || q >= 1 {
		panic("lifetime: quantile out of [0,1)")
	}
	s := math.Max(age, m.Xm)
	// T | T > s is Pareto(s, alpha); quantile is s*(1-q)^(-1/alpha).
	return float64(s*math.Pow(1-q, -1/m.Alpha)) - age
}

// ---------------------------------------------------------------------------
// Age rank (the paper's estimator)

// AgeRank is the paper's non-parametric rule: a peer's expected
// remaining lifetime is taken to be proportional to its age, capped at
// Horizon (the paper's L = 90 days - "peers which have been in the
// system for longer times are not much different"). The absolute scale
// is irrelevant; only the ordering matters for selection.
type AgeRank struct {
	// Horizon caps the age considered; <= 0 means no cap.
	Horizon float64
}

// ExpectedRemaining returns min(age, Horizon) (age itself if no cap):
// the identity-in-age estimate whose ordering matches any heavy-tail
// model.
func (a AgeRank) ExpectedRemaining(age float64) float64 {
	if age < 0 {
		age = 0
	}
	if a.Horizon > 0 && age > a.Horizon {
		return a.Horizon
	}
	return age
}

// Compare orders two ages under the capped rule: -1 if a1 ranks below
// a2, 0 if they tie (both beyond the horizon or equal), +1 otherwise.
func (a AgeRank) Compare(age1, age2 float64) int {
	e1, e2 := a.ExpectedRemaining(age1), a.ExpectedRemaining(age2)
	switch {
	case e1 < e2:
		return -1
	case e1 > e2:
		return 1
	default:
		return 0
	}
}

// ---------------------------------------------------------------------------
// Empirical model

// EmpiricalModel estimates remaining lifetime from a set of observed
// complete lifetimes with no distributional assumption: the Kaplan-Meier
// style plug-in E[T - t | T > t] over the empirical distribution.
type EmpiricalModel struct {
	sorted []float64 // ascending observed lifetimes
	suffix []float64 // suffix[i] = sum of sorted[i:]
}

// NewEmpiricalModel builds the estimator from complete lifetimes.
func NewEmpiricalModel(lifetimes []float64) (*EmpiricalModel, error) {
	if len(lifetimes) == 0 {
		return nil, errNoSamples
	}
	s := append([]float64(nil), lifetimes...)
	sort.Float64s(s)
	if s[0] <= 0 {
		return nil, errors.New("lifetime: non-positive lifetime sample")
	}
	suffix := make([]float64, len(s)+1)
	for i := len(s) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + s[i]
	}
	return &EmpiricalModel{sorted: s, suffix: suffix}, nil
}

// Survival returns the empirical P(T > t).
func (e *EmpiricalModel) Survival(t float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, t)
	// Move past ties: Survival counts strictly greater samples.
	for idx < len(e.sorted) && e.sorted[idx] == t {
		idx++
	}
	return float64(len(e.sorted)-idx) / float64(len(e.sorted))
}

// ExpectedRemaining returns the plug-in estimate of E[T - t | T > t].
// If no observed lifetime exceeds t, the largest observation's residual
// (zero) is returned.
func (e *EmpiricalModel) ExpectedRemaining(age float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, age)
	for idx < len(e.sorted) && e.sorted[idx] == age {
		idx++
	}
	n := len(e.sorted) - idx
	if n == 0 {
		return 0
	}
	return e.suffix[idx]/float64(n) - age
}

// Len returns the number of samples backing the model.
func (e *EmpiricalModel) Len() int { return len(e.sorted) }

// ---------------------------------------------------------------------------
// Validation helpers

// ParetoGoodnessOfFit fits a Pareto to the samples and reports the
// Kolmogorov-Smirnov distance between the samples and the fitted model
// (parametric bootstrap against the analytic CDF). Small distances
// support the paper's heavy-tail assumption for a given churn trace.
func ParetoGoodnessOfFit(samples []float64) (model ParetoModel, ks float64, err error) {
	model, err = FitPareto(samples)
	if err != nil {
		return ParetoModel{}, 0, err
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := 1 - model.Survival(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return model, d, nil
}

// TailExponent estimates alpha via the log-log complementary CDF fit
// (see stats.FitParetoLogLog), a robustness cross-check on the MLE.
func TailExponent(samples []float64) (float64, error) {
	alpha, _, err := stats.FitParetoLogLog(samples)
	return alpha, err
}
