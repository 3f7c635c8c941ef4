package redundancy

// The differential oracle for the sizing kernel. Durability reads ln i!
// from a table and Adaptive.Target finds its answer by bisection; both
// replaced code whose results every golden digest of an adaptive run
// depends on, so the replaced code lives on here — refDurability and the
// linear scan refMinBlocks, verbatim — and the tests below hold the
// kernel to it bit for bit and decision for decision. The oracle is the
// arbiter: a counterexample is a bug in the search, never in the test.

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"
)

// refDurability is Durability as it stood before the log-factorial
// table: two math.Lgamma per term.
func refDurability(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if n < k || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgn, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := k; i <= n; i++ {
		lgi, _ := math.Lgamma(float64(i + 1))
		lgni, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgn - lgi - lgni + float64(float64(i)*lp) + float64(float64(n-i)*lq))
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// refMinBlocks is the linear scan MinBlocksFor replaced, over the given
// tail function: refDurability for the fully independent oracle, or
// Durability — pinned bit-equal to it by TestDurabilityBitsMatchReference
// — where the independent one is too slow to run at every grid point.
func refMinBlocks(lo, hi, k int, p, target float64, dur func(n, k int, p float64) float64) int {
	need := lo
	for need < hi && dur(need, k, p) < target {
		need++
	}
	return need
}

// refDecide is the hysteresis and shrink-cap tail of Adaptive.Target,
// as it stood.
func refDecide(a Adaptive, need, current int) int {
	if need > current {
		return need
	}
	if current-need > a.Hysteresis {
		if current-need > maxShrinkPerEval {
			return current - maxShrinkPerEval
		}
		return need
	}
	return current
}

// refTarget is Adaptive.Target as it stood, plus the two guards this
// kernel rewrite introduced: an unbound policy and a non-finite
// availability leave the target alone.
func refTarget(a Adaptive, obs Observation) int {
	if a.kprime == 0 || math.IsNaN(obs.Availability) || math.IsInf(obs.Availability, 0) {
		return obs.Current
	}
	thr := a.kprime
	if thr < obs.DataBlocks {
		thr = obs.DataBlocks
	}
	need := refMinBlocks(a.Min, a.Max, thr, obs.Availability, a.TargetDurability, refDurability)
	return refDecide(a, need, obs.Current)
}

// sameBits reports bit equality, counting any two NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// oracleKs are the decode counts exercised at one n: the edges, the
// interior, and the paper's repair threshold.
func oracleKs(n int) []int {
	ks := []int{1, 2, n / 3, n / 2, n - 1, n}
	if n > 148 {
		ks = append(ks, 148)
	}
	return ks
}

var oraclePs = []float64{-0.5, 0, 1e-9, 0.01, 0.3, 0.5, 0.86, 0.99, 1 - 1e-9, 1, 1.5, math.NaN()}

// TestDurabilityBitsMatchReference: the table changes where ln i! comes
// from and nothing else. n runs across the table's end, where lnFact
// falls back to math.Lgamma.
func TestDurabilityBitsMatchReference(t *testing.T) {
	if len(lnFactTable) >= 600 {
		t.Fatalf("table holds %d entries: the sweep below no longer crosses its end", len(lnFactTable))
	}
	for n := 1; n <= 600; n++ {
		for _, k := range oracleKs(n) {
			for _, p := range oraclePs {
				if got, want := Durability(n, k, p), refDurability(n, k, p); !sameBits(got, want) {
					t.Fatalf("Durability(%d, %d, %v) = %x, reference %x", n, k, p,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestDurabilityNearMonotone pins what makes the bisection exact. The
// binomial tail is monotone in n; the computed tail is not quite (it
// wobbles by a few 1e-13 where it saturates), and MinBlocksFor's proof
// needs every wobble — between any two n, not only neighbours — to stay
// under its slack. Every adjacent n is visited; an eighth of the slack
// is allowed.
func TestDurabilityNearMonotone(t *testing.T) {
	for _, k := range []int{1, 20, 128, 148, 300} {
		for i := 1; i < 200; i++ {
			p := float64(i) / 200
			highest := 0.0
			for n := k; n <= 600; n++ {
				d := Durability(n, k, p)
				if tol := tailSlack(n) / 8; d < highest-tol {
					t.Fatalf("Durability(%d, %d, %v) = %v sits %g under an earlier n's %v (allowed %g)",
						n, k, p, d, highest-d, highest, tol)
				}
				if d > highest {
					highest = d
				}
			}
		}
	}
}

// exactTail is the binomial tail in 256-bit arithmetic.
func exactTail(n, k int, p float64) float64 {
	const prec = 256
	bp := new(big.Float).SetPrec(prec).SetFloat64(p)
	bq := new(big.Float).SetPrec(prec).Sub(big.NewFloat(1).SetPrec(prec), bp)
	pow := func(b *big.Float, e int) *big.Float {
		r := big.NewFloat(1).SetPrec(prec)
		for ; e > 0; e-- {
			r.Mul(r, b)
		}
		return r
	}
	sum := new(big.Float).SetPrec(prec)
	for i := k; i <= n; i++ {
		term := new(big.Float).SetPrec(prec).SetInt(new(big.Int).Binomial(int64(n), int64(i)))
		term.Mul(term, pow(bp, i)).Mul(term, pow(bq, n-i))
		sum.Add(sum, term)
	}
	f, _ := sum.Float64()
	return f
}

// TestDurabilityErrorUnderSlack measures the rounding error the slack
// is sized against: the computed tail stays within a sixteenth of it of
// the exact one.
func TestDurabilityErrorUnderSlack(t *testing.T) {
	for _, c := range []struct{ n, k int }{{32, 20}, {200, 148}, {256, 148}, {256, 128}, {600, 300}} {
		for _, p := range []float64{0.05, 0.5, 0.62, 0.8, 0.86, 0.95, 0.999} {
			got, want := Durability(c.n, c.k, p), exactTail(c.n, c.k, p)
			if err := math.Abs(got - want); err > tailSlack(c.n)/16 {
				t.Errorf("Durability(%d, %d, %v) = %v, exact %v: error %g exceeds %g",
					c.n, c.k, p, got, want, err, tailSlack(c.n)/16)
			}
		}
	}
}

// checkPoint holds MinBlocksFor and Target to the oracle at one
// availability and returns the oracle's need. With full set the scan
// runs over refDurability and every Current in [Min, Max] is tried;
// otherwise it runs over Durability and Current takes the values around
// which Target's answer changes shape.
func checkPoint(t *testing.T, a Adaptive, k int, p float64, full bool) int {
	t.Helper()
	dur := Durability
	if full {
		dur = refDurability
	}
	need := refMinBlocks(a.Min, a.Max, a.kprime, p, a.TargetDurability, dur)
	if got := MinBlocksFor(a.Min, a.Max, a.kprime, p, a.TargetDurability); got != need {
		t.Fatalf("MinBlocksFor(%d, %d, %d, %v, %v) = %d, linear scan %d",
			a.Min, a.Max, a.kprime, p, a.TargetDurability, got, need)
	}
	try := func(cur int) {
		if cur < a.Min || cur > a.Max {
			return
		}
		obs := Observation{Current: cur, DataBlocks: k, Availability: p}
		if got, want := a.Target(obs), refDecide(a, need, cur); got != want {
			t.Fatalf("Target(current=%d, p=%v) = %d, oracle %d (need %d)", cur, p, got, want, need)
		}
	}
	if full {
		for cur := a.Min; cur <= a.Max; cur++ {
			try(cur)
		}
		return need
	}
	for _, cur := range []int{a.Min, a.Max, need - 1, need, need + a.Hysteresis, need + a.Hysteresis + 1,
		need + maxShrinkPerEval, need + maxShrinkPerEval + 1} {
		try(cur)
	}
	return need
}

// checkCrossings finds every availability between pa and pb (needs na
// and nb) at which the oracle's need changes, down to adjacent floats,
// and runs the full check on both sides of each and on neighbours up to
// 4096 ulps out — the stretch in which rounding noise decides the scan.
func checkCrossings(t *testing.T, a Adaptive, k int, pa float64, na int, pb float64, nb int) {
	if na == nb {
		return
	}
	mid := pa + (pb-pa)/2
	if mid == pa || mid == pb {
		lo, hi := math.Float64bits(pa), math.Float64bits(pb)
		for _, d := range []uint64{0, 1, 2, 37, 4096} {
			if lo >= d {
				checkPoint(t, a, k, math.Float64frombits(lo-d), true)
			}
			if q := math.Float64frombits(hi + d); q <= 1 {
				checkPoint(t, a, k, q, true)
			}
		}
		return
	}
	nm := refMinBlocks(a.Min, a.Max, a.kprime, mid, a.TargetDurability, Durability)
	checkCrossings(t, a, k, pa, na, mid, nm)
	checkCrossings(t, a, k, mid, nm, pb, nb)
}

// TestTargetMatchesLinearScan sweeps the availability axis: a 20 001
// point grid of [0, 1] (a tenth of it under -short), the fully
// independent oracle and every Current at every 128th point — at every
// point for the small shape, where that is cheap — and at every
// crossing of the need between grid points.
func TestTargetMatchesLinearScan(t *testing.T) {
	grid := 20000
	if testing.Short() {
		grid = 2000
	}
	for _, shape := range []struct{ k, kprime, n, min, max int }{
		{16, 20, 32, 0, 0},
		{16, 20, 32, 22, 30},
		{128, 148, 256, 0, 0},
		{128, 148, 256, 160, 240},
	} {
		for _, target := range []float64{0.9, 0.99999, 1 - 1e-12} {
			t.Run(fmt.Sprintf("k=%d,n=%d,min=%d,max=%d,target=%v", shape.k, shape.n, shape.min, shape.max, target), func(t *testing.T) {
				t.Parallel()
				bound, err := (&Adaptive{Min: shape.min, Max: shape.max, TargetDurability: target}).Bind(shape.k, shape.kprime, shape.n)
				if err != nil {
					t.Fatal(err)
				}
				a := *bound
				prevP, prevNeed := 0.0, 0
				for i := 0; i <= grid; i++ {
					p := float64(i) / float64(grid)
					need := checkPoint(t, a, shape.k, p, shape.n <= 32 || i%128 == 0)
					if i > 0 {
						checkCrossings(t, a, shape.k, prevP, prevNeed, p, need)
					}
					prevP, prevNeed = p, need
				}
			})
		}
	}
}

// TestMinBlocksForInsideRoundingNoise sets the target where the computed
// tail is not monotone: 3e-14 under 1, the size of its rounding error
// at the paper's shape. A bare bisection lands on a later crossing than
// the scan's first one here (235 for 229 at p = 0.8431 with bounds 160
// to 240); the slack is what keeps MinBlocksFor on the first. Here the
// estimate lands inside the slack, so the pinned sum must be what
// decides some comparisons.
func TestMinBlocksForInsideRoundingNoise(t *testing.T) {
	const target = 1 - 3e-14
	sums := 0
	for _, r := range []struct{ lo, hi int }{{148, 256}, {160, 240}} {
		for i := 0; i <= 20000; i++ {
			p := float64(i) / 20000
			want := refMinBlocks(r.lo, r.hi, 148, p, target, Durability)
			if got := MinBlocksFor(r.lo, r.hi, 148, p, target); got != want {
				t.Fatalf("MinBlocksFor(%d, %d, 148, %v, %v) = %d, linear scan %d", r.lo, r.hi, p, target, got, want)
			}
			_, _, s := minBlocks(r.lo, r.hi, 148, p, target)
			sums += s
		}
	}
	if sums == 0 {
		t.Error("no comparison fell inside the slack: the pinned sum behind the estimate went untested")
	}
}

// TestExactTailIsRare: the estimate decides nearly every comparison at
// the paper's shape and default target, so the pinned sum runs for at
// most 1 % of them.
func TestExactTailIsRare(t *testing.T) {
	probes, sums := 0, 0
	for i := 0; i <= 20000; i++ {
		_, pr, s := minBlocks(148, 256, 148, float64(i)/20000, DefaultTargetDurability)
		probes += pr
		sums += s
	}
	t.Logf("%d of %d comparisons ran the pinned sum", sums, probes)
	if sums*100 > probes {
		t.Errorf("%d of %d comparisons ran the pinned sum, more than 1 %%", sums, probes)
	}
}

// estimateOf is tailEstimate as MinBlocksFor calls it.
func estimateOf(n, k int, p float64) float64 {
	return tailEstimate(n, k, p, math.Log(p), math.Log1p(-p))
}

// TestTailEstimateWithinSlack certifies what makes the estimate safe to
// decide on: it sits within a sixteenth of tailSlack(n) of the pinned
// tail — every n up to 600, across the table's end, at every oracleKs
// decode count, over a 400-point grid of (0, 1) and four availabilities
// a millionth and a billionth from either end (a tenth of the grid
// under -short). Worst case measured: 0.94 % of the allowance, 1.1e-12
// at n = 452, k = 1, p = 0.09375 (the one math.Exp's exponent cancels
// ln 452! ≈ 2300, and its rounding scales every term); against the
// exact tail at TestDurabilityErrorUnderSlack's points, 3.6e-13 at
// n = 600, k = 300, p = 0.95, 0.24 % of the allowance.
func TestTailEstimateWithinSlack(t *testing.T) {
	t.Parallel()
	grid := 400
	if testing.Short() {
		grid = 40
	}
	ps := []float64{1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9}
	for i := 0; i < grid; i++ {
		ps = append(ps, (float64(i)+0.5)/float64(grid))
	}
	worst, worstShare := 0.0, 0.0
	for n := 1; n <= 600; n++ {
		for _, k := range oracleKs(n) {
			if k <= 0 || k > n {
				continue // outside the estimate's domain: MinBlocksFor answers without a sum there
			}
			for _, p := range ps {
				est, dur := estimateOf(n, k, p), Durability(n, k, p)
				err := math.Abs(est - dur)
				if err > tailSlack(n)/16 {
					t.Fatalf("tailEstimate(%d, %d, %v) = %v, pinned tail %v: error %g exceeds %g",
						n, k, p, est, dur, err, tailSlack(n)/16)
				}
				worst, worstShare = max(worst, err), max(worstShare, err/(tailSlack(n)/16))
			}
		}
	}
	worstExact := 0.0
	for _, c := range []struct{ n, k int }{{32, 20}, {200, 148}, {256, 148}, {256, 128}, {600, 300}} {
		for _, p := range []float64{0.05, 0.5, 0.62, 0.8, 0.86, 0.95, 0.999} {
			est, want := estimateOf(c.n, c.k, p), exactTail(c.n, c.k, p)
			err := math.Abs(est - want)
			if err > tailSlack(c.n)/16 {
				t.Errorf("tailEstimate(%d, %d, %v) = %v, exact %v: error %g exceeds %g",
					c.n, c.k, p, est, want, err, tailSlack(c.n)/16)
			}
			worstExact = max(worstExact, err)
		}
	}
	t.Logf("worst error: %g from the pinned tail (%g of the allowance), %g from the exact tail", worst, worstShare, worstExact)
}

// TestMinBlocksForEdges: the arguments a caller outside Adaptive may
// pass — empty and inverted ranges, ranges reaching below k, degenerate
// k, p and target — answer as the scan does; a NaN availability, which
// the scan would take for a perfect one, sizes to hi.
func TestMinBlocksForEdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []struct{ lo, hi int }{{148, 256}, {100, 256}, {10, 100}, {200, 200}, {210, 200}, {0, 5}, {-3, 4}, {-9, -2}} {
		for _, k := range []int{-1, 0, 1, 128, 148, 300} {
			for _, p := range []float64{-inf, -1, 0, 1e-300, 0.5, 0.9, 1, 2, inf} {
				for _, target := range []float64{-1, 0, 1e-300, 0.5, 0.99999, 1, 1.5, inf, nan} {
					want := refMinBlocks(r.lo, r.hi, k, p, target, refDurability)
					if got := MinBlocksFor(r.lo, r.hi, k, p, target); got != want {
						t.Errorf("MinBlocksFor(%d, %d, %d, %v, %v) = %d, linear scan %d", r.lo, r.hi, k, p, target, got, want)
					}
				}
			}
		}
	}
	if got := MinBlocksFor(148, 256, 148, nan, 0.99999); got != 256 {
		t.Errorf("MinBlocksFor at NaN availability = %d, want hi = 256", got)
	}
}

// TestTargetWithoutMeasurement: with nothing to size from, Target
// leaves the archive where it is. An unbound policy used to shrink it
// toward zero, 8 blocks an evaluation; a NaN availability used to size
// it to Min.
func TestTargetWithoutMeasurement(t *testing.T) {
	unbound, err := Parse("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{Current: 200, DataBlocks: 128, Availability: 0.5}
	if got := unbound.Target(obs); got != 200 {
		t.Errorf("unbound Target = %d, want Current = 200", got)
	}
	bound, err := unbound.Bind(128, 148, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		obs.Availability = p
		if got := bound.Target(obs); got != 200 {
			t.Errorf("Target at availability %v = %d, want Current = 200", p, got)
		}
	}
	// A measured zero is evidence, and the worst there is.
	for _, p := range []float64{0, -0.25} {
		obs.Availability = p
		if got := bound.Target(obs); got != 256 {
			t.Errorf("Target at availability %v = %d, want Max = 256", p, got)
		}
	}
}

// TestKernelConcurrent hammers the kernel from many goroutines released
// at once, so that under -race any write to the shared table — it is
// built at package initialisation and must never change — is reported.
// Results are checked against the reference, across the table's end.
func TestKernelConcurrent(t *testing.T) {
	bound, err := (&Adaptive{}).Bind(128, 148, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := *bound
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				p := 0.5 + float64((g*40+i)%450)/1000
				n := 150 + (g*53+i*17)%450
				if got, want := Durability(n, 148, p), refDurability(n, 148, p); !sameBits(got, want) {
					t.Errorf("Durability(%d, 148, %v) = %v, reference %v", n, p, got, want)
				}
				obs := Observation{Current: 148 + (g+i)%109, DataBlocks: 128, Availability: p}
				if got, want := a.Target(obs), refTarget(a, obs); got != want {
					t.Errorf("Target(%+v) = %d, oracle %d", obs, got, want)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
