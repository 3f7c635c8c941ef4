package transfer

import (
	"math"
	"testing"
)

// FuzzParse throws arbitrary class-spec strings at the bandwidth
// parser (the CLI's -bandwidth flag). Every input must either produce
// validated Params or an error — never panic, and whatever Parse
// accepts must itself re-validate cleanly, since the engine trusts
// parsed Params without re-checking.
func FuzzParse(f *testing.F) {
	for _, s := range Presets() {
		f.Add(s)
	}
	for _, s := range []string{
		"",
		"dsl:1:32/256",
		"slow:0.6:8/64;dsl:0.3:32/256;ftth:0.1:128/1024",
		"restart;dsl:1:32/256:16",
		"resume;a:0.5:0/0;b:0.5:1/1",
		"dsl:1:32/256:0",
		"dsl:1.5:32/256",
		"dsl:-1:32/256",
		"dsl:1:32",
		"dsl:1:x/y",
		"x:nan:1/1",
		";;;",
		"restart",
		"instant;dsl:1:32/256",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned both params and error %v", spec, err)
			}
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned nil params without error", spec)
		}
		if _, err := p.validate(); err != nil {
			t.Fatalf("Parse(%q) accepted params that fail Validate: %v", spec, err)
		}
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", spec, err)
		}
		// Accepted means usable: finite shares in [0, 1] summing to 1 and
		// finite non-negative rates. A share is positive unless it
		// underflowed beside a vastly larger one (5e-324 next to 1e308),
		// which leaves a class that is never drawn.
		sum, positive := 0.0, false
		for _, c := range p.Classes {
			if !(c.Proportion >= 0 && c.Proportion <= 1) || !(c.Up >= 0) || !(c.Down >= 0) ||
				math.IsInf(c.Up, 1) || math.IsInf(c.Down, 1) {
				t.Fatalf("Parse(%q) accepted class %+v", spec, c)
			}
			sum += c.Proportion
			positive = positive || c.Proportion > 0
		}
		if !positive || math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Parse(%q) accepted shares summing to %v", spec, sum)
		}
	})
}
