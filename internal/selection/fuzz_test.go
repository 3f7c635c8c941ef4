package selection

import (
	"math"
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
		// A policy's age table is its acceptance: AcceptanceFunction of
		// the two ages at its horizon, whatever else the Views carry. The
		// ages come from the spec's own bytes, so a fuzzed horizon meets
		// ages on both sides of it.
		tab := AcceptTable(pol)
		if L := pol.AcceptHorizon(); int64(len(tab)) != 2*L+1 {
			t.Fatalf("%q: horizon %d, an age table of %d entries", spec, L, len(tab))
		}
		var a, b int64
		for i := 0; i < len(spec); i++ {
			a, b = b*31+int64(spec[i])-'5', a
		}
		va := View{Observed: Observed{Age: a}, Oracle: Oracle{Availability: 0.5, Remaining: b}}
		vb := View{Observed: Observed{Age: b}, Oracle: Oracle{Remaining: a}}
		if got, want := acceptProb(pol, va, vb), tableProb(tab, a, b); got != want {
			t.Fatalf("%q: acceptance(ages %d, %d) = %v, its age table %v", spec, a, b, got, want)
		}
		// A score table, where the policy declares one, is its Score at
		// the clamped age, whatever else the View and Context hold; a
		// wrapper that only embeds the policy has none.
		if ScoreTable(struct{ Policy }{pol}) != nil {
			t.Fatalf("%q: a wrapper that embeds the policy has a score table", spec)
		}
		if scores := ScoreTable(pol); scores != nil {
			L := pol.AcceptHorizon()
			if int64(len(scores)) != L+1 {
				t.Fatalf("%q: horizon %d, a score table of %d entries", spec, L, len(scores))
			}
			for _, v := range []View{va, vb} {
				got, want := scores[min(max(v.Observed.Age, 0), L)], pol.Score(Context{Round: a ^ b}, v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%q: age %d, its score table %v, Score %v", spec, v.Observed.Age, got, want)
				}
			}
		}
	})
}
