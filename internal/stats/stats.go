// Package stats provides the measurement primitives behind the
// experiment harness: streaming moments, time series, quantiles and
// least-squares fits. Everything is allocation-light and deterministic
// so results can be compared bit-for-bit across runs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// errEmpty reports an operation on an empty data set.
var errEmpty = errors.New("stats: empty data set")

// ---------------------------------------------------------------------------
// Streaming moments

// Stream accumulates count, mean and variance in one pass using
// Welford's algorithm, which stays numerically stable over the billions
// of updates a long simulation performs. The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += float64(d * (x - s.mean))
}

// Merge folds other into s (parallel Welford combination).
func (s *Stream) Merge(other *Stream) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	na, nb := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := na + nb
	s.mean += delta * nb / tot
	s.m2 += other.m2 + delta*delta*na*nb/tot
	s.n += other.n
}

// N returns the observation count.
func (s *Stream) N() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (s *Stream) CI95() float64 { return 1.96 * s.StdErr() }

// String summarises the stream.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// ---------------------------------------------------------------------------
// Quantiles over stored samples

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac), nil
}

// ---------------------------------------------------------------------------
// Time series

// Series is an append-only (x, y) series: the cumulative plots in the
// paper (Figures 3 and 4).
type Series struct {
	name string
	xs   []float64
	ys   []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append adds a point; x values should be non-decreasing.
func (s *Series) Append(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.xs) }

// At returns point i.
func (s *Series) At(i int) (x, y float64) { return s.xs[i], s.ys[i] }

// Last returns the final point, or (0, 0) for an empty series.
func (s *Series) Last() (x, y float64) {
	if len(s.xs) == 0 {
		return 0, 0
	}
	return s.xs[len(s.xs)-1], s.ys[len(s.ys)-1]
}

// ---------------------------------------------------------------------------
// Least squares

// LinearFit holds a least-squares line y = Slope*x + Intercept and its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// fitLine computes an ordinary least squares fit. xs and ys must have
// equal, non-zero length and xs must not be constant.
func fitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: fitLine needs equal non-empty slices, got %d and %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: fitLine with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - float64(slope*mx)}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys identical and on the fitted (horizontal) line
	}
	return fit, nil
}

// FitParetoLogLog estimates the Pareto tail exponent alpha by fitting
// log(survival) against log(x): for a Pareto, log P(X>x) =
// alpha*log(xm) - alpha*log(x), so the slope of the log-log complementary
// CDF is -alpha. Returns the estimated alpha and the fit.
func FitParetoLogLog(samples []float64) (alpha float64, fit LinearFit, err error) {
	if len(samples) < 10 {
		return 0, LinearFit{}, fmt.Errorf("stats: need >= 10 samples for a tail fit, got %d", len(samples))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if s[0] <= 0 {
		return 0, LinearFit{}, errors.New("stats: Pareto tail fit needs positive samples")
	}
	var lx, ly []float64
	n := len(s)
	for i, v := range s {
		surv := float64(n-i) / float64(n)
		if i+1 < n && s[i+1] == v {
			continue // keep one point per distinct value
		}
		if surv <= 0 {
			continue
		}
		lx = append(lx, math.Log(v))
		ly = append(ly, math.Log(surv))
	}
	fit, err = fitLine(lx, ly)
	if err != nil {
		return 0, LinearFit{}, err
	}
	return -fit.Slope, fit, nil
}
