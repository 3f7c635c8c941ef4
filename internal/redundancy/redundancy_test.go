package redundancy

import (
	"errors"
	"math"
	"strings"
	"testing"

	"p2pbackup/internal/spec"
)

func TestParseFixed(t *testing.T) {
	for _, spec := range []string{"", "fixed"} {
		pol, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if pol != nil {
			t.Fatalf("Parse(%q) = %+v, want nil (the fixed shape)", spec, pol)
		}
	}
}

func TestParseAdaptive(t *testing.T) {
	cases := []struct {
		spec string
		want Adaptive
	}{
		{"adaptive", Adaptive{TargetDurability: 0.99999, Hysteresis: 6, Eval: 24, Sample: 16}},
		{"adaptive:0.95", Adaptive{TargetDurability: 0.95, Hysteresis: 6, Eval: 24, Sample: 16}},
		{"adaptive:min=160,max=256,target=0.95", Adaptive{Min: 160, Max: 256, TargetDurability: 0.95, Hysteresis: 6, Eval: 24, Sample: 16}},
		{"adaptive:target=0.9,hysteresis=4,eval=48,sample=8", Adaptive{TargetDurability: 0.9, Hysteresis: 4, Eval: 48, Sample: 8}},
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if pol == nil || *pol != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.spec, pol, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	unknown := []string{"nope", "adaptivex", "fixed2:1", ":", "adaptive2:min=1"}
	for _, spec := range unknown {
		if _, err := Parse(spec); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("Parse(%q) err = %v, want ErrUnknownPolicy", spec, err)
		}
	}
	bad := []string{
		"fixed:1",                 // fixed takes no params
		"adaptive:min=x",          // non-integer
		"adaptive:target=2",       // outside (0,1)
		"adaptive:target=0",       // outside (0,1)
		"adaptive:min=9,max=4",    // min > max
		"adaptive:hysteresis=-1",  // negative
		"adaptive:eval=0",         // cadence < 1
		"adaptive:sample=0",       // sample < 1
		"adaptive:bogus=1",        // unknown key
		"adaptive:min=1,min=2",    // duplicate
		"adaptive:0.9,target=0.8", // bare + keyed mix
		"adaptive:min=",           // malformed
		"adaptive:,",              // empty parts
		"adaptive:min=-1",         // negative bound
	}
	for _, spec := range bad {
		if _, err := Parse(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q) err = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestNamesContainsBuiltins(t *testing.T) {
	names := spec.Names(table)
	if len(names) < 2 || names[0] != "fixed" || names[1] != "adaptive" {
		t.Fatalf("table names = %v, want [fixed adaptive ...]", names)
	}
}

func TestAdaptiveBind(t *testing.T) {
	pol, err := Parse("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := pol.Bind(128, 148, 256)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	a := bound
	if a.Min != 148 || a.Max != 256 {
		t.Fatalf("bound bounds = [%d, %d], want [148, 256]", a.Min, a.Max)
	}
	if a.Eval != 24 || a.Sample != 16 {
		t.Fatalf("bound cadence, sample = %d, %d, want 24, 16", a.Eval, a.Sample)
	}

	for _, c := range []struct{ min, max int }{
		{128, 256}, // min == k
		{100, 256}, // min < k
		{150, 300}, // max > n
		{200, 150}, // min > max after resolve
	} {
		p := Adaptive{Min: c.min, Max: c.max}
		if _, err := p.Bind(128, 148, 256); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Bind(min=%d,max=%d) err = %v, want ErrBadSpec", c.min, c.max, err)
		}
	}
}

func TestDurability(t *testing.T) {
	// Degenerate edges.
	if got := Durability(10, 0, 0.5); got != 1 {
		t.Fatalf("k=0: %v", got)
	}
	if got := Durability(3, 5, 0.9); got != 0 {
		t.Fatalf("n<k: %v", got)
	}
	if got := Durability(10, 5, 0); got != 0 {
		t.Fatalf("p=0: %v", got)
	}
	if got := Durability(10, 5, 1); got != 1 {
		t.Fatalf("p=1: %v", got)
	}
	// Exact small case: P[Binom(3, 0.5) >= 2] = 0.5.
	if got := Durability(3, 2, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Durability(3,2,0.5) = %v, want 0.5", got)
	}
	// n=k degenerates to p^k.
	if got, want := Durability(4, 4, 0.9), math.Pow(0.9, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Durability(4,4,0.9) = %v, want %v", got, want)
	}
	// Monotone in n and in p.
	prev := 0.0
	for n := 128; n <= 256; n += 16 {
		d := Durability(n, 128, 0.6)
		if d < prev {
			t.Fatalf("Durability not monotone in n at n=%d: %v < %v", n, d, prev)
		}
		prev = d
	}
	if Durability(200, 128, 0.7) <= Durability(200, 128, 0.6) {
		t.Fatal("Durability not monotone in p")
	}
	// Paper shape at high availability is effectively durable.
	if d := Durability(256, 128, 0.86); d < 0.999999 {
		t.Fatalf("Durability(256,128,0.86) = %v, want ~1", d)
	}
}

func TestEffectiveThreshold(t *testing.T) {
	// Full-size archive keeps the configured threshold.
	if got := EffectiveThreshold(128, 148, 256, 256); got != 148 {
		t.Fatalf("full size: %d, want 148", got)
	}
	// Oversized targets clamp to the configured threshold too.
	if got := EffectiveThreshold(128, 148, 256, 300); got != 148 {
		t.Fatalf("oversize: %d, want 148", got)
	}
	// The k'-k cushion is absolute: every target at or above k' keeps
	// exactly the configured threshold, so a shrunk archive's repair
	// trigger still sits the full 20 block failures above the loss line.
	for target := 148; target <= 255; target++ {
		if thr := EffectiveThreshold(128, 148, 256, target); thr != 148 {
			t.Fatalf("target=%d: thr=%d, want the absolute 148", target, thr)
		}
	}
	// Targets below k' (an archive deliberately sized under the repair
	// threshold) repair as soon as any block is missing.
	for target := 129; target < 148; target++ {
		if thr := EffectiveThreshold(128, 148, 256, target); thr != target {
			t.Fatalf("target=%d: thr=%d, want target", target, thr)
		}
	}
	// Monotone in target, and never below k.
	prev := 0
	for target := 129; target <= 256; target++ {
		thr := EffectiveThreshold(128, 148, 256, target)
		if thr < prev || thr < 128 {
			t.Fatalf("EffectiveThreshold not monotone at target=%d", target)
		}
		prev = thr
	}
	// Degenerate shape n == k.
	if got := EffectiveThreshold(16, 16, 16, 16); got != 16 {
		t.Fatalf("n==k: %d, want 16", got)
	}
}

func TestAdaptiveTarget(t *testing.T) {
	pol, err := (&Adaptive{}).Bind(16, 20, 32)
	if err != nil {
		t.Fatal(err)
	}

	// Perfect availability: the minimum suffices; a full-size archive
	// descends to it stepwise, at most maxShrinkPerEval blocks per
	// evaluation, so a mis-measured shrink can be halted by the next
	// measurement before the archive is deep in fragile territory.
	got := pol.Target(Observation{Current: 32, DataBlocks: 16, Availability: 1})
	if got != 32-maxShrinkPerEval {
		t.Fatalf("perfect availability first step = %d, want %d", got, 32-maxShrinkPerEval)
	}
	for cur := got; cur != pol.Min; {
		next := pol.Target(Observation{Current: cur, DataBlocks: 16, Availability: 1})
		if next >= cur || cur-next > maxShrinkPerEval {
			t.Fatalf("descent stalled or overstepped: %d -> %d", cur, next)
		}
		cur = next
	}
	// Terrible availability: the policy pins at Max.
	got = pol.Target(Observation{Current: 20, DataBlocks: 16, Availability: 0.3})
	if got != pol.Max {
		t.Fatalf("low availability target = %d, want Max=%d", got, pol.Max)
	}
	// Hysteresis: a surplus within the band does not shrink.
	need := pol.Min // at p=1 the minimum meets the target
	within := Observation{Current: need + pol.Hysteresis, DataBlocks: 16, Availability: 1}
	if got := pol.Target(within); got != within.Current {
		t.Fatalf("within-band surplus shrank: %d -> %d", within.Current, got)
	}
	beyond := Observation{Current: need + pol.Hysteresis + 1, DataBlocks: 16, Availability: 1}
	if got := pol.Target(beyond); got != need {
		t.Fatalf("beyond-band surplus did not shrink to %d: got %d", need, got)
	}
	// Growing ignores hysteresis: any deficit grows immediately.
	grow := pol.Target(Observation{Current: pol.Min, DataBlocks: 16, Availability: 0.55})
	if grow <= pol.Min {
		t.Fatalf("deficit did not grow: %d", grow)
	}

	// Sizing references the repair threshold, not the decode bound: at
	// the paper shape and its measured ~0.86 availability the chosen
	// n(t) must be the smallest count holding >= k'=148 blocks with
	// five-nines probability — well under the fixed n=256 but far above
	// what sizing against k=128 alone would pick.
	paper, err := (&Adaptive{}).Bind(128, 148, 256)
	if err != nil {
		t.Fatal(err)
	}
	n := paper.Target(Observation{Current: 148, DataBlocks: 128, Availability: 0.86})
	if n <= 148 || n >= 256 {
		t.Fatalf("paper-shape target = %d, want strictly inside (148, 256)", n)
	}
	if d := Durability(n, 148, 0.86); d < paper.TargetDurability {
		t.Fatalf("chosen n=%d misses the target: durability %v", n, d)
	}
	if d := Durability(n-1, 148, 0.86); d >= paper.TargetDurability {
		t.Fatalf("n=%d is not minimal: n-1 already meets the target (%v)", n, d)
	}
}

// TestTableWellFormed is the static table's sanity check: every entry
// has a builder and a name that is non-empty, unique and free of
// parameter syntax, or the grammar could not reach it.
func TestTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range table {
		if e.Name == "" || e.Build == nil || strings.ContainsAny(e.Name, "=, ") || seen[e.Name] {
			t.Errorf("table[%d] = %q: empty, duplicate, builderless or holding parameter syntax", i, e.Name)
		}
		seen[e.Name] = true
	}
}

// BenchmarkMinBlocksFor sizes one archive of the paper's shape (k' =
// 148 in [148, 256], the default target) at the availabilities the
// benchmark harness's redundancy.target_us primitive cycles through,
// 0.50 to 0.95 in steps of 0.05.
func BenchmarkMinBlocksFor(b *testing.B) {
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += MinBlocksFor(148, 256, 148, 0.50+0.05*float64(i%10), DefaultTargetDurability)
	}
	if sink == 0 {
		b.Fatal("no decision")
	}
}

// BenchmarkBind binds the default policy to the paper's shape: almost
// all of it is building the availability bands, 2 × 109 edges.
func BenchmarkBind(b *testing.B) {
	pol := &Adaptive{}
	for b.Loop() {
		if _, err := pol.Bind(128, 148, 256); err != nil {
			b.Fatal(err)
		}
	}
}
