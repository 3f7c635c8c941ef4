package redundancy

import (
	"math"
	"testing"

	"p2pbackup/internal/spec"
)

// FuzzParse throws arbitrary policy-spec strings at the redundancy
// parser (the CLI's -redundancy flag). Every input must either produce
// a policy (nil for fixed) or an error — never panic — and whatever Parse accepts must
// Bind cleanly against the paper's code shape or fail with a wrapped
// ErrBadSpec, since sim.Config.Validate relies on exactly that split.
func FuzzParse(f *testing.F) {
	for _, s := range spec.Names(table) {
		f.Add(s)
	}
	for _, s := range []string{
		"",
		"adaptive:0.95",
		"adaptive:min=160,max=256,target=0.95",
		"adaptive:target=0.9,hysteresis=4,eval=48,sample=8",
		"adaptive:min=9,max=4",
		"adaptive:target=2",
		"adaptive:bogus=1",
		"adaptive:min=1,min=2",
		"adaptive:0.9,target=0.8",
		"fixed:1",
		"nope",
		":",
		";;;",
		"adaptive:min=",
		"adaptive:,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := Parse(spec)
		if err != nil {
			if pol != nil {
				t.Fatalf("Parse(%q) returned both policy and error %v", spec, err)
			}
			return
		}
		if pol == nil {
			return // fixed: no policy to bind
		}
		// Bind against the paper shape: either a usable bound policy or
		// a shape-mismatch error, never a panic.
		bound, err := pol.Bind(128, 148, 256)
		if err != nil {
			return
		}
		if bound.Min <= 128 || bound.Max < bound.Min || bound.Max > 256 {
			t.Fatalf("Parse(%q) bound to [%d, %d], outside (k, n]", spec, bound.Min, bound.Max)
		}
		if bound.Eval < 1 || bound.Sample < 1 {
			t.Fatalf("Parse(%q) bound to eval=%d, sample=%d", spec, bound.Eval, bound.Sample)
		}
		// Reparsing must be stable.
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", spec, err)
		}
	})
}

// FuzzTargetMatchesLinearScan holds the bisection behind Adaptive.Target
// and MinBlocksFor, and the bands Target starts it from, to the linear
// scan it replaced (oracle_test.go) on arbitrary code shapes, bounds,
// targets and availabilities — NaN, the infinities and values outside
// [0, 1] included. The seed below is the paper's shape at its measured
// availability; testdata holds the rest, among them targets set at a
// computed tail (seed-slack-*), where the estimate falls inside the
// slack and the pinned sum decides, availabilities at a band edge of
// the paper's shape and one float either side (seed-band-*), and a Min
// below k' at an availability where k' blocks of Min would hold the
// target if Min were not below k' (seed-min-below-kprime).
func FuzzTargetMatchesLinearScan(f *testing.F) {
	f.Add(uint16(127), uint16(20), uint16(107), uint16(0), uint16(0), uint8(6), uint16(52), 0.86, 0.99999)
	f.Fuzz(func(t *testing.T, k, slack, extra, minOff, maxOff uint16, hyst uint8, cur uint16, p, target float64) {
		// The fuzzer's floats are mostly astronomically large or small;
		// fold the large ones into [0, 1), where the search does its work,
		// and keep NaN, the infinities and everything within [-2, 2].
		fold := func(x float64) float64 {
			if !(math.Abs(x) > 2) || math.IsInf(x, 0) {
				return x
			}
			_, frac := math.Modf(math.Abs(x))
			return frac
		}
		p, target = fold(p), fold(target)
		// A shape 1 <= k <= k' < n <= 400, bounds somewhere inside it:
		// Max in [k', n], Min in (k, n], k' + minOff for small offsets
		// and wrapping round to below k' for large ones.
		shapeK := 1 + int(k%160)
		kprime := shapeK + int(slack%40)
		n := kprime + 1 + int(extra%200)
		a := Adaptive{TargetDurability: target, Hysteresis: int(hyst % 32)}
		if minOff > 0 {
			a.Min = shapeK + 1 + (kprime-shapeK-1+int(minOff))%(n-shapeK)
		}
		if maxOff > 0 {
			a.Max = kprime + int(maxOff)%(n-kprime+1)
		}
		lo, hi := kprime, n
		if a.Min > 0 {
			lo = a.Min
		}
		if a.Max > 0 {
			hi = a.Max
		}
		// MinBlocksFor takes whatever it is given; only a NaN availability
		// is answered differently from the scan, on purpose.
		if !math.IsNaN(p) {
			want := refMinBlocks(lo, hi, kprime, p, target, refDurability)
			if got := MinBlocksFor(lo, hi, kprime, p, target); got != want {
				t.Fatalf("MinBlocksFor(%d, %d, %d, %v, %v) = %d, linear scan %d", lo, hi, kprime, p, target, got, want)
			}
		}
		bound, err := a.Bind(shapeK, kprime, n)
		if err != nil {
			return
		}
		b := *bound
		obs := Observation{Current: b.Min + int(cur)%(b.Max-b.Min+1), DataBlocks: shapeK, Availability: p}
		if got, want := b.Target(obs), refTarget(b, obs); got != want {
			t.Fatalf("%+v.Target(%+v) = %d, oracle %d", b, obs, got, want)
		}
	})
}

// FuzzTailEstimateWithinSlack holds the estimate MinBlocksFor decides
// on to the bound TestTailEstimateWithinSlack certifies — within a
// sixteenth of tailSlack(n) of the pinned tail — at arbitrary shapes
// 0 < k <= n <= 600 and availabilities folded into (0, 1).
func FuzzTailEstimateWithinSlack(f *testing.F) {
	f.Add(uint16(255), uint16(147), 0.86)
	f.Add(uint16(599), uint16(0), 1e-9)
	f.Add(uint16(599), uint16(599), 1-1e-9)
	f.Add(uint16(31), uint16(19), 0.5)
	f.Fuzz(func(t *testing.T, n, k uint16, p float64) {
		if !(p > 0 && p < 1) {
			_, p = math.Modf(math.Abs(p))
			if !(p > 0) {
				return // NaN, an infinity or a whole number: nothing inside (0, 1)
			}
		}
		size := 1 + int(n%600)
		need := 1 + int(k)%size
		est, dur := estimateOf(size, need, p), Durability(size, need, p)
		if err := math.Abs(est - dur); err > tailSlack(size)/16 {
			t.Fatalf("tailEstimate(%d, %d, %v) = %v, pinned tail %v: error %g exceeds %g",
				size, need, p, est, dur, err, tailSlack(size)/16)
		}
	})
}
