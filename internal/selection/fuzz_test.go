package selection

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary spec strings at the strategy registry.
// Parse is the CLI's entry point (-strategy flag), so every input must
// either resolve to a usable policy or return an error — never panic,
// and never return a nil policy without one.
func FuzzParse(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	for _, s := range []string{
		"",
		"age:L=2160",
		"age:2160",
		"estimator:pareto:alpha=1.5,xm=24",
		"estimator:empirical:n=256",
		"monitored-availability:720",
		"monitored-availability:window=720",
		"age:L=",
		"age:L=abc",
		"age:L=2160,L=2160",
		"age:L=7",
		"estimator",
		"no-such-strategy",
		"age:unknown=1",
		":::",
		"age:,",
		"age:=5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := Parse(spec)
		if err != nil {
			if pol != nil {
				t.Fatalf("Parse(%q) returned both a policy and error %v", spec, err)
			}
			return
		}
		if pol == nil {
			t.Fatalf("Parse(%q) returned nil policy without error", spec)
		}
		// Accepted specs must parse identically a second time (the
		// registry is stateless) and under explicit defaults.
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", spec, err)
		}
		if _, err := ParseWith(spec, Defaults{Horizon: 48}); err != nil &&
			!strings.Contains(err.Error(), "horizon") {
			t.Fatalf("ParseWith(%q) diverged from Parse: %v", spec, err)
		}
		// A policy with an age table computes its acceptance from the two
		// ages alone, whatever else the Views carry, and the table holds
		// it. The ages come from the spec's own bytes, so a fuzzed horizon
		// meets ages on both sides of it.
		if tab := AcceptTable(pol); tab != nil {
			var a, b int64
			for i := 0; i < len(spec); i++ {
				a, b = b*31+int64(spec[i])-'5', a
			}
			va := View{Observed: Observed{Age: a}, Oracle: Oracle{Availability: 0.5, Remaining: b}}
			vb := View{Observed: Observed{Age: b}, Oracle: Oracle{Remaining: a}}
			if got, want := pol.AcceptProb(Context{Round: a ^ b}, va, vb), tableProb(tab, a, b); got != want {
				t.Fatalf("%q: AcceptProb(ages %d, %d) = %v, its age table %v", spec, a, b, got, want)
			}
		}
	})
}
