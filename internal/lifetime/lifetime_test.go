package lifetime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"p2pbackup/internal/dist"
	"p2pbackup/internal/rng"
)

func paretoSamples(t *testing.T, xm, alpha float64, n int, seed uint64) []float64 {
	t.Helper()
	p, err := dist.NewPareto(xm, alpha)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	s := make([]float64, n)
	for i := range s {
		s[i] = p.Sample(r)
	}
	return s
}

func TestFitParetoRecoversParameters(t *testing.T) {
	samples := paretoSamples(t, 5, 1.8, 50000, 1)
	m, err := FitPareto(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-1.8) > 0.05 {
		t.Fatalf("alpha = %v, want ~1.8", m.Alpha)
	}
	if math.Abs(m.Xm-5) > 0.01 {
		t.Fatalf("xm = %v, want ~5", m.Xm)
	}
}

func TestFitParetoErrors(t *testing.T) {
	if _, err := FitPareto([]float64{1}); !errors.Is(err, errNoSamples) {
		t.Fatal("single sample must be rejected")
	}
	if _, err := FitPareto([]float64{1, -2, 3}); err == nil {
		t.Fatal("negative sample must be rejected")
	}
	if _, err := FitPareto([]float64{2, 2, 2}); err == nil {
		t.Fatal("degenerate samples must be rejected")
	}
}

func TestParetoModelSurvivalHazard(t *testing.T) {
	m := ParetoModel{Xm: 2, Alpha: 2}
	if m.Survival(1) != 1 || m.Survival(2) != 1 {
		t.Fatal("survival below xm must be 1")
	}
	if got := m.Survival(4); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Survival(4) = %v, want 0.25", got)
	}
	if m.Hazard(1) != 0 {
		t.Fatal("hazard below xm must be 0")
	}
	// Decreasing hazard: the "older peers die less" signature.
	prev := m.Hazard(2)
	for _, age := range []float64{3, 5, 10, 100} {
		h := m.Hazard(age)
		if h >= prev {
			t.Fatalf("hazard not decreasing at %v: %v >= %v", age, h, prev)
		}
		prev = h
	}
}

func TestParetoExpectedRemainingGrowsWithAge(t *testing.T) {
	m := ParetoModel{Xm: 1, Alpha: 2}
	// Closed form t/(alpha-1) = t for t >= xm.
	for _, age := range []float64{1, 5, 42} {
		if got := m.ExpectedRemaining(age); math.Abs(got-age) > 1e-9 {
			t.Fatalf("ExpectedRemaining(%v) = %v, want %v", age, got, age)
		}
	}
	heavy := ParetoModel{Xm: 1, Alpha: 0.9}
	if !math.IsInf(heavy.ExpectedRemaining(3), 1) {
		t.Fatal("alpha <= 1 must give +Inf")
	}
}

func TestQuantileRemaining(t *testing.T) {
	m := ParetoModel{Xm: 1, Alpha: 1} // infinite mean, finite quantiles
	// Median remaining at age t: t*2^(1/1) - t = t.
	for _, age := range []float64{1, 10, 50} {
		if got := m.QuantileRemaining(age, 0.5); math.Abs(got-age) > 1e-9 {
			t.Fatalf("median remaining at %v = %v, want %v", age, got, age)
		}
	}
	// Monotone in q.
	if m.QuantileRemaining(5, 0.9) <= m.QuantileRemaining(5, 0.1) {
		t.Fatal("quantiles must increase in q")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("q = 1 must panic")
			}
		}()
		m.QuantileRemaining(1, 1)
	}()
}

func TestAgeRank(t *testing.T) {
	a := AgeRank{Horizon: 90}
	if a.ExpectedRemaining(-5) != 0 {
		t.Fatal("negative age must clamp to 0")
	}
	if a.ExpectedRemaining(45) != 45 {
		t.Fatal("below horizon, estimate is the age")
	}
	if a.ExpectedRemaining(1000) != 90 {
		t.Fatal("above horizon, estimate is capped")
	}
	if a.Compare(10, 20) != -1 || a.Compare(20, 10) != 1 || a.Compare(7, 7) != 0 {
		t.Fatal("Compare ordering wrong")
	}
	// Beyond the horizon all ages tie - the paper's "not much different".
	if a.Compare(91, 5000) != 0 {
		t.Fatal("ages beyond horizon must tie")
	}
	uncapped := AgeRank{}
	if uncapped.ExpectedRemaining(1e6) != 1e6 {
		t.Fatal("no horizon must not cap")
	}
}

func TestAgeRankMonotoneProperty(t *testing.T) {
	a := AgeRank{Horizon: 2160}
	if err := quick.Check(func(x, y float64) bool {
		x, y = math.Abs(x), math.Abs(y)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if x <= y {
			return a.ExpectedRemaining(x) <= a.ExpectedRemaining(y)
		}
		return a.ExpectedRemaining(x) >= a.ExpectedRemaining(y)
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalModel(t *testing.T) {
	m, err := NewEmpiricalModel([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	if got := m.Survival(0); got != 1 {
		t.Fatalf("Survival(0) = %v", got)
	}
	if got := m.Survival(20); got != 0.5 {
		t.Fatalf("Survival(20) = %v, want 0.5 (strictly greater)", got)
	}
	if got := m.Survival(100); got != 0 {
		t.Fatalf("Survival(100) = %v", got)
	}
	// At age 20, survivors are {30, 40}: mean 35, remaining 15.
	if got := m.ExpectedRemaining(20); math.Abs(got-15) > 1e-12 {
		t.Fatalf("ExpectedRemaining(20) = %v, want 15", got)
	}
	// Beyond all observations: zero remaining.
	if got := m.ExpectedRemaining(40); got != 0 {
		t.Fatalf("ExpectedRemaining(40) = %v, want 0", got)
	}
	if _, err := NewEmpiricalModel(nil); !errors.Is(err, errNoSamples) {
		t.Fatal("empty model must be rejected")
	}
	if _, err := NewEmpiricalModel([]float64{0, 1}); err == nil {
		t.Fatal("zero lifetime must be rejected")
	}
}

func TestEmpiricalAgreesWithParetoOnParetoData(t *testing.T) {
	samples := paretoSamples(t, 1, 2.5, 50000, 3)
	fit, err := FitPareto(samples)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpiricalModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range []float64{1.5, 2, 3} {
		pe := fit.ExpectedRemaining(age)
		ee := emp.ExpectedRemaining(age)
		if math.Abs(pe-ee)/pe > 0.1 {
			t.Errorf("age %v: Pareto says %v, empirical says %v", age, pe, ee)
		}
	}
}

func TestParetoGoodnessOfFit(t *testing.T) {
	good := paretoSamples(t, 1, 1.5, 20000, 4)
	_, ks, err := ParetoGoodnessOfFit(good)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.02 {
		t.Fatalf("KS for true Pareto = %v, want small", ks)
	}
	// Uniform data is a bad Pareto; KS should be clearly larger.
	r := rng.New(5)
	uni := make([]float64, 20000)
	for i := range uni {
		uni[i] = 1 + r.Float64()
	}
	_, ksBad, err := ParetoGoodnessOfFit(uni)
	if err != nil {
		t.Fatal(err)
	}
	if ksBad < 5*ks {
		t.Fatalf("uniform KS %v not clearly worse than Pareto KS %v", ksBad, ks)
	}
}

func TestTailExponent(t *testing.T) {
	samples := paretoSamples(t, 2, 1.2, 30000, 6)
	alpha, err := TailExponent(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-1.2) > 0.15 {
		t.Fatalf("tail exponent = %v, want ~1.2", alpha)
	}
}

func TestEstimatorInterfaceCompliance(t *testing.T) {
	var _ Estimator = ParetoModel{}
	var _ Estimator = AgeRank{}
	var _ Estimator = (*EmpiricalModel)(nil)
}

// TestEstimatorMonotonicityProperty validates the paper's "ranking by
// age is equivalent to ranking by any heavy-tailed lifetime estimate"
// claim at the estimator level: each Estimator implementation must be
// monotone non-decreasing in age past its scale floor, which is what
// makes "sort by age" a valid selection rule.
//
// AgeRank and ParetoModel are checked exactly over randomised model
// parameters. EmpiricalModel is a plug-in over finite heavy-tailed
// samples: between consecutive order statistics the estimate decays
// with slope -1 before jumping at the next sample, so pointwise
// monotonicity only holds up to sampling noise — the property checked
// is strict monotonicity over a coarse quantile grid plus a small
// relative bound (5%) on any backslide at the sample points themselves.
// All randomness is seeded, so the property run is reproducible.
func TestEstimatorMonotonicityProperty(t *testing.T) {
	r := rng.New(20260731)
	ages := func(lo, hi float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return out
	}
	checkMonotone := func(name string, est Estimator, grid []float64, relTol float64) {
		t.Helper()
		prev := est.ExpectedRemaining(grid[0])
		for _, age := range grid[1:] {
			e := est.ExpectedRemaining(age)
			if e < prev && (relTol == 0 || prev-e > relTol*math.Abs(prev)) {
				t.Errorf("%s: ExpectedRemaining(%v) = %v < %v — not monotone", name, age, e, prev)
			}
			if e > prev {
				prev = e
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		// AgeRank: exact, any horizon (including uncapped).
		horizon := float64(r.Intn(5000)) // 0 = no cap
		checkMonotone(fmt.Sprintf("AgeRank{%v}", horizon),
			AgeRank{Horizon: horizon}, ages(0, 10000, 200), 0)

		// ParetoModel: exact for ages past the scale floor xm.
		alpha := 1.05 + 3*r.Float64()
		xm := 1 + 99*r.Float64()
		checkMonotone(fmt.Sprintf("Pareto{xm=%.3g,alpha=%.3g}", xm, alpha),
			ParetoModel{Xm: xm, Alpha: alpha}, ages(xm, xm*1000, 200), 0)
	}
	// EmpiricalModel over genuinely heavy-tailed (Pareto) samples.
	for _, alpha := range []float64{1.2, 1.5, 2, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			samples := paretoSamples(t, 1, alpha, 5000, seed)
			emp, err := NewEmpiricalModel(samples)
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			// Strictly monotone over the decile grid (tail excluded:
			// past the largest observations the plug-in runs out of
			// survivors by construction).
			var grid []float64
			for q := 5; q <= 90; q += 5 {
				grid = append(grid, sorted[len(sorted)*q/100])
			}
			checkMonotone(fmt.Sprintf("Empirical(alpha=%.1f,seed=%d)/deciles", alpha, seed), emp, grid, 0)
			// Bounded backslide at every sample point below the tail.
			checkMonotone(fmt.Sprintf("Empirical(alpha=%.1f,seed=%d)/samples", alpha, seed),
				emp, sorted[:len(sorted)*95/100], 0.05)
		}
	}
}
