package redundancy

import (
	"math"
	"testing"
)

// FuzzParse throws arbitrary policy-spec strings at the redundancy
// parser (the CLI's -redundancy flag). Every input must either produce
// a Policy or an error — never panic — and whatever Parse accepts must
// Bind cleanly against the paper's code shape or fail with a wrapped
// ErrBadSpec, since sim.Config.Validate relies on exactly that split.
func FuzzParse(f *testing.F) {
	for _, s := range Names() {
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
			t.Fatalf("Parse(%q) returned nil policy without error", spec)
		}
		if pol.Name() == "" {
			t.Fatalf("Parse(%q) returned unnamed policy", spec)
		}
		// Bind against the paper shape: either a usable bound policy or
		// a shape-mismatch error, never a panic.
		bound, err := pol.Bind(128, 148, 256)
		if err != nil {
			return
		}
		if init := bound.Initial(128, 256); init < 128 || init > 256 {
			t.Fatalf("Parse(%q).Initial out of [k, n]: %d", spec, init)
		}
		if bound.EvalEvery() < 1 {
			t.Fatalf("Parse(%q).EvalEvery < 1", spec)
		}
		// Reparsing must be stable.
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", spec, err)
		}
	})
}

// FuzzTargetMatchesLinearScan holds the bisection behind Adaptive.Target
// and MinBlocksFor to the linear scan it replaced (oracle_test.go) on
// arbitrary code shapes, bounds, targets and availabilities — NaN, the
// infinities and values outside [0, 1] included. The seed below is the
// paper's shape at its measured availability; testdata holds the rest.
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
		// A shape 1 <= k <= k' < n <= 400, bounds somewhere inside it.
		shapeK := 1 + int(k%160)
		kprime := shapeK + int(slack%40)
		n := kprime + 1 + int(extra%200)
		a := Adaptive{TargetDurability: target, Hysteresis: int(hyst % 32)}
		if minOff > 0 {
			a.Min = kprime + int(minOff)%(n-kprime+1)
		}
		if maxOff > 0 {
			a.Max = kprime + int(maxOff)%(n-kprime+1)
		}
		lo, hi := max(a.Min, kprime), n
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
		b := bound.(Adaptive)
		obs := Observation{Current: b.Min + int(cur)%(b.Max-b.Min+1), DataBlocks: shapeK, Availability: p}
		if got, want := b.Target(obs), refTarget(b, obs); got != want {
			t.Fatalf("%+v.Target(%+v) = %d, oracle %d", b, obs, got, want)
		}
	})
}
