package redundancy

// Tests for the availability bands Bind builds and Target starts its
// search from. Their proof rests on the exact tail being monotone in p
// and on the computed values staying within slack/16 of it; the tests
// below check what that proof promises at the points the bands use, and
// that starting from the bands never costs a comparison.

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// bandShapes are TestTargetMatchesLinearScan's shapes and targets, and
// one whose Min lies below k', as adaptive:min=140 puts it at the
// paper's shape: its n below k' never hold k' blocks.
var bandShapes = []struct{ k, kprime, n, min, max int }{
	{16, 20, 32, 0, 0},
	{16, 20, 32, 22, 30},
	{128, 148, 256, 0, 0},
	{128, 148, 256, 160, 240},
	{128, 148, 256, 140, 0},
}

var bandTargets = []float64{0.9, 0.99999, 1 - 1e-12}

// forEachBound runs f on every bandShapes × bandTargets policy, bound.
func forEachBound(t *testing.T, f func(t *testing.T, a Adaptive)) {
	for _, shape := range bandShapes {
		for _, target := range bandTargets {
			t.Run(fmt.Sprintf("k=%d,n=%d,min=%d,max=%d,target=%v", shape.k, shape.n, shape.min, shape.max, target), func(t *testing.T) {
				t.Parallel()
				bound, err := (&Adaptive{Min: shape.min, Max: shape.max, TargetDurability: target}).Bind(shape.k, shape.kprime, shape.n)
				if err != nil {
					t.Fatal(err)
				}
				f(t, *bound)
			})
		}
	}
}

// edgePs returns every certified band edge of a bound policy, each with
// its neighbours up to ulps floats out on either side, inside (0, 1).
func edgePs(a Adaptive, ulps int) []float64 {
	if a.bands == nil {
		return nil
	}
	var ps []float64
	for _, e := range append(append([]float64(nil), a.bands.lo...), a.bands.hi...) {
		if !(e > 0 && e < 1) {
			continue
		}
		lo, hi := e, e
		ps = append(ps, e)
		for i := 0; i < ulps; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			ps = append(ps, lo, hi)
		}
	}
	return ps
}

// checkBands holds a bound policy's bands to their certificate against
// the pinned tail: at lo(n), and one float below, the tail of n blocks
// is under target − tailSlack(Max); at hi(n), and one float above, it
// reaches target. Both edge lists are non-increasing in n with lo(n) <
// hi(n), and there are bands exactly when the target is more than
// bandMargin slacks from 0 and from 1.
func checkBands(t *testing.T, a Adaptive) {
	t.Helper()
	slack := tailSlack(a.Max)
	margin := float64(bandMargin * slack)
	want := a.TargetDurability > margin && a.TargetDurability < 1-margin
	if b := a.bands; (b != nil) != want {
		t.Fatalf("target %v, slack %g: bands present = %v, want %v", a.TargetDurability, slack, b != nil, want)
	}
	if a.bands == nil {
		return
	}
	lo, hi := a.bands.lo, a.bands.hi
	if len(lo) != a.Max-a.Min+1 || len(hi) != len(lo) {
		t.Fatalf("bands hold %d and %d edges for [%d, %d]", len(lo), len(hi), a.Min, a.Max)
	}
	for i := range lo {
		n := a.Min + i
		if i > 0 && (lo[i] > lo[i-1] || hi[i] > hi[i-1]) {
			t.Fatalf("n=%d: edges (%v, %v) rise from n-1's (%v, %v)", n, lo[i], hi[i], lo[i-1], hi[i-1])
		}
		if n < a.kprime {
			if lo[i] != 1 || hi[i] != 1 {
				t.Fatalf("n=%d below k'=%d: edges (%v, %v), want (1, 1)", n, a.kprime, lo[i], hi[i])
			}
			continue // no n below k' holds k' blocks: certified under everywhere
		}
		if !(lo[i] < hi[i]) {
			t.Fatalf("n=%d: lo edge %v not under hi edge %v", n, lo[i], hi[i])
		}
		if lo[i] > 0 {
			for _, p := range []float64{lo[i], math.Nextafter(lo[i], 0)} {
				if d := Durability(n, a.kprime, p); !(d < a.TargetDurability-slack) {
					t.Fatalf("n=%d, lo edge %v: Durability at %v = %v, not under target − slack = %v",
						n, lo[i], p, d, a.TargetDurability-slack)
				}
			}
		}
		if hi[i] < 1 {
			for _, p := range []float64{hi[i], math.Nextafter(hi[i], 1)} {
				if d := Durability(n, a.kprime, p); !(d >= a.TargetDurability) {
					t.Fatalf("n=%d, hi edge %v: Durability at %v = %v, under target %v",
						n, hi[i], p, d, a.TargetDurability)
				}
			}
		}
	}
}

// TestBandsCertify checks every band edge of the oracle's shapes and
// targets; 1 − 1e-12 is within four slacks of 1 at both sizes and must
// have none.
func TestBandsCertify(t *testing.T) {
	forEachBound(t, func(t *testing.T, a Adaptive) {
		checkBands(t, a)
		if a.TargetDurability == 1-1e-12 && a.bands != nil {
			t.Fatal("bands built for a target inside the margin of 1")
		}
	})
	for _, target := range []float64{1e-12, bandMargin * tailSlack(256), 1 - bandMargin*tailSlack(256)} {
		bound, err := (&Adaptive{TargetDurability: target}).Bind(128, 148, 256)
		if err != nil {
			t.Fatal(err)
		}
		if bound.bands != nil {
			t.Errorf("target %v: bands built inside the margin", target)
		}
	}
}

// TestDurabilityNearMonotoneInP pins the bands' other premise where they
// use it: the pinned tail of every n of every oracle shape, across a
// 2 000-point grid of (0, 1) and 16 floats either side of each band
// edge (a tenth of the grid and 4 floats under -short), never falls
// more than an eighth of the slack under its value at a smaller p.
// TestDurabilityNearMonotone is the same check in n.
func TestDurabilityNearMonotoneInP(t *testing.T) {
	grid, ulps := 2000, 16
	if testing.Short() {
		grid, ulps = 200, 4
	}
	forEachBound(t, func(t *testing.T, a Adaptive) {
		ps := edgePs(a, ulps)
		for i := 1; i < grid; i++ {
			ps = append(ps, float64(i)/float64(grid))
		}
		slices.Sort(ps)
		tol := tailSlack(a.Max) / 8
		worst := 0.0
		for n := a.Min; n <= a.Max; n++ {
			highest := 0.0
			for _, p := range ps {
				d := Durability(n, a.kprime, p)
				if d < highest-tol {
					t.Fatalf("Durability(%d, %d, %v) = %v sits %g under a smaller p's %v (allowed %g)",
						n, a.kprime, p, d, highest-d, highest, tol)
				}
				worst = max(worst, highest-d)
				highest = max(highest, d)
			}
		}
		t.Logf("worst fall %g of an allowed %g", worst, tol)
	})
}

// TestBandsNeverCompareMore: starting from the bands, Target compares
// no more tails than MinBlocksFor does over [Min, Max], and finds the
// same size. The comparisons depend on the shape, target and
// availability alone — Current only enters after the size is found —
// so every oracle shape and target is tried over a 20 001-point grid of
// [0, 1] and at every band edge and its 8 floats either side.
func TestBandsNeverCompareMore(t *testing.T) {
	forEachBound(t, func(t *testing.T, a Adaptive) {
		ps := edgePs(a, 8)
		for i := 0; i <= 20000; i++ {
			ps = append(ps, float64(i)/20000)
		}
		banded, full := 0, 0
		for _, p := range ps {
			n, probes, _ := a.need(a.kprime, p)
			want, wantProbes, _ := minBlocks(a.Min, a.Max, a.kprime, p, a.TargetDurability)
			if n != want {
				t.Fatalf("need at p=%v = %d, MinBlocksFor %d", p, n, want)
			}
			if probes > wantProbes {
				t.Fatalf("need at p=%v compared %d tails, MinBlocksFor %d", p, probes, wantProbes)
			}
			banded, full = banded+probes, full+wantProbes
		}
		t.Logf("%d comparisons from the bands, %d over [Min, Max]", banded, full)
	})
}

// FuzzBandsCertify holds the bands of arbitrary shapes 1 <= k <= k' < n
// <= 400, bounds (Min anywhere in (k, n], below k' too) and targets to
// checkBands' certificate against the pinned tail. Shapes, bounds and
// targets are drawn as FuzzTargetMatchesLinearScan draws them; outside
// (0, 1) Bind refuses a target.
func FuzzBandsCertify(f *testing.F) {
	f.Add(uint16(127), uint16(20), uint16(107), uint16(0), uint16(0), 0.99999)
	f.Add(uint16(127), uint16(20), uint16(107), uint16(12), uint16(92), 0.9)
	f.Add(uint16(127), uint16(20), uint16(107), uint16(120), uint16(0), 0.95)
	f.Add(uint16(15), uint16(4), uint16(11), uint16(0), uint16(0), 0.29650496574999263)
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), 1e-6)
	f.Add(uint16(159), uint16(39), uint16(199), uint16(0), uint16(0), 1-1e-8)
	f.Fuzz(func(t *testing.T, k, slack, extra, minOff, maxOff uint16, target float64) {
		if math.Abs(target) > 2 && !math.IsInf(target, 0) {
			_, target = math.Modf(math.Abs(target))
		}
		shapeK := 1 + int(k%160)
		kprime := shapeK + int(slack%40)
		n := kprime + 1 + int(extra%200)
		a := Adaptive{TargetDurability: target}
		if minOff > 0 {
			a.Min = shapeK + 1 + (kprime-shapeK-1+int(minOff))%(n-shapeK)
		}
		if maxOff > 0 {
			a.Max = kprime + int(maxOff)%(n-kprime+1)
		}
		bound, err := a.Bind(shapeK, kprime, n)
		if err != nil {
			return
		}
		checkBands(t, *bound)
	})
}
