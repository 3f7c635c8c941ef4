// Package dist provides the random distributions the churn model draws
// lifetimes from: constants (tests), uniform ranges (the paper's
// profile table gives lifetime ranges), and Pareto (the heavy-tailed
// lifetime family under which age-based selection is provably aligned
// with expected remaining lifetime).
package dist

import (
	"fmt"
	"math"

	"p2pbackup/internal/rng"
)

// Sampler draws one value from a distribution.
type Sampler interface {
	Sample(r *rng.Rand) float64
}

// Constant always returns its own value.
type Constant float64

// Sample implements Sampler.
func (c Constant) Sample(*rng.Rand) float64 { return float64(c) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// NewUniform validates the range and returns the distribution.
func NewUniform(lo, hi float64) (Uniform, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo >= hi {
		return Uniform{}, fmt.Errorf("dist: invalid uniform range [%v, %v)", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rng.Rand) float64 {
	return u.Lo + float64(r.Float64()*(u.Hi-u.Lo))
}

// Pareto is the Pareto distribution with scale Xm (minimum value) and
// shape Alpha: P(X > x) = (Xm/x)^Alpha for x >= Xm.
type Pareto struct {
	Xm, Alpha float64
}

// NewPareto validates the parameters and returns the distribution.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if !(xm > 0) || !(alpha > 0) {
		return Pareto{}, fmt.Errorf("dist: invalid pareto parameters xm=%v alpha=%v", xm, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Sample implements Sampler by inverse-transform sampling.
func (p Pareto) Sample(r *rng.Rand) float64 {
	// 1 - Float64() is in (0, 1], avoiding a division by zero.
	return p.Xm * math.Pow(1-r.Float64(), -1/p.Alpha)
}
