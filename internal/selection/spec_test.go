package selection

import (
	"errors"
	"strings"
	"testing"

	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/spec"
)

func TestParseBuiltins(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"", "age(L=2160)"}, // empty spec = the paper's default
		{"age", "age(L=2160)"},
		{"age:L=48", "age(L=48)"},
		{"age:48", "age(L=48)"}, // positional primary parameter
		{"random", "random"},
		{"availability-oracle", "availability-oracle"},
		{"lifetime-oracle", "lifetime-oracle"},
		{"youngest-first", "youngest-first"},
		{"estimator:age", "estimator:age"},
		{"estimator:pareto", "estimator:pareto"},
		{"estimator:pareto:alpha=2.5,xm=24", "estimator:pareto"},
		{"estimator:empirical", "estimator:empirical"},
		{"estimator:empirical:n=64", "estimator:empirical"},
		{"monitored-availability", "monitored-availability(W=2160)"},
		{"monitored-availability:720", "monitored-availability(W=720)"},
		{"monitored-availability:W=720", "monitored-availability(W=720)"},
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if pol.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, pol.Name(), c.name)
		}
	}
}

func TestParseWithDefaults(t *testing.T) {
	for spec, want := range map[string]string{
		"age":                    "age(L=48)",
		"estimator:age":          "estimator:age",
		"monitored-availability": "monitored-availability(W=48)",
		"age:L=7":                "age(L=7)", // explicit parameter wins
	} {
		pol, err := ParseWith(spec, Defaults{Horizon: 48})
		if err != nil {
			t.Fatalf("ParseWith(%q): %v", spec, err)
		}
		if pol.Name() != want {
			t.Errorf("ParseWith(%q) = %q, want %q", spec, pol.Name(), want)
		}
	}
}

func TestParseRejectsUnknownNames(t *testing.T) {
	for _, spec := range []string{"nope", "estimator:nope", "agee", "estimator"} {
		_, err := Parse(spec)
		if !errors.Is(err, ErrUnknownStrategy) {
			t.Errorf("Parse(%q) = %v, want ErrUnknownStrategy", spec, err)
		}
	}
}

func TestParseRejectsBadParameters(t *testing.T) {
	cases := []string{
		"age:K=5",                  // unknown key
		"age:L=xyz",                // non-integer
		"age:L=0",                  // out of range
		"age:L=-4",                 // out of range
		"age:L=1048577",            // past the horizon bound: a table of 2L+1 entries
		"random:L=5",               // parameterless strategy given a key
		"random:5",                 // ... or a positional value
		"lifetime-oracle:L=5",      // misplaced horizon
		"age:L=5,L=6",              // duplicate
		"age:5,L=6",                // positional mixed with keyed
		"age:L=",                   // malformed
		"age:,",                    // empty parameter
		"estimator:pareto:alpha=1", // alpha must exceed 1
		"estimator:pareto:xm=0",    // xm must be positive
		"estimator:pareto:beta=2",  // unknown key
		"estimator:empirical:n=1",  // too few samples
		"estimator:empirical:n=4611686018427387904", // absurd sample count
		"estimator:empirical:n=1000000000",          // over the sampling-work bound
		"estimator:pareto:alpha=NaN",                // NaN must not bypass validation
		"estimator:pareto:xm=NaN",                   // NaN must not bypass validation
		"estimator:pareto:alpha=+Inf",               // infinite tail exponent
		"monitored-availability:W=0",                // empty window
		"monitored-availability:L=10",               // wrong key for the window
		"estimator:age:W=5",                         // wrong key for the horizon
	}
	for _, spec := range cases {
		_, err := Parse(spec)
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q) = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestNamesCoverRegistry(t *testing.T) {
	names := Names()
	// The historical five stay first, in their historical order: the
	// strategy campaigns derive variant seeds from these indexes.
	historical := []string{"age", "random", "availability-oracle", "lifetime-oracle", "youngest-first"}
	for i, want := range historical {
		if names[i] != want {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, want := range []string{"estimator:age", "estimator:pareto", "estimator:empirical", "monitored-availability"} {
		if !strings.Contains(strings.Join(names, " "), want) {
			t.Fatalf("Names() = %v missing %q", names, want)
		}
	}
	// Every entry has a builder and a name that is non-empty, unique and
	// free of parameter syntax, or the grammar could not reach it.
	seen := map[string]bool{}
	for i, e := range table {
		if e.Name == "" || e.Build == nil || strings.ContainsAny(e.Name, "=, ") || seen[e.Name] {
			t.Errorf("table[%d] = %q: empty, duplicate, builderless or holding parameter syntax", i, e.Name)
		}
		seen[e.Name] = true
	}
	for _, n := range names {
		if _, err := Parse(n); err != nil {
			t.Errorf("registered name %q does not parse bare: %v", n, err)
		}
	}
}

func TestRegisterCustomSpec(t *testing.T) {
	// A custom strategy with parameters is one more table entry. It stays
	// appended: FuzzParse, which runs after the tests, seeds from Names().
	table = append(table, spec.Entry[Defaults, Policy]{Name: "test:constant", Build: func(p *spec.Params, _ Defaults) (Policy, error) {
		c := p.Float("c", 1)
		return EstimatorRanked{Est: lifetime.AgeRank{Horizon: c}, Label: "test:constant"}, nil
	}})
	if names := Names(); names[len(names)-1] != "test:constant" {
		t.Fatalf("Names() = %v, want the appended entry last", names)
	}
	pol, err := Parse("test:constant:c=5")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "test:constant" {
		t.Fatalf("custom policy name = %q", pol.Name())
	}
	if _, err := Parse("test:constant:d=5"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown custom parameter accepted: %v", err)
	}
	// The longest name wins: "test:constant" is not "test" with a
	// parameter, and an unknown prefix stays unknown.
	if _, err := Parse("test:c=5"); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("Parse(test:c=5) = %v, want ErrUnknownStrategy", err)
	}
}

func TestEstimatorSpecsAreDeterministic(t *testing.T) {
	// estimator:empirical draws its backing samples with a fixed seed:
	// two parses must score identically.
	a, err := Parse("estimator:empirical")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("estimator:empirical")
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{Round: 1000}
	for age := int64(0); age < 5000; age += 97 {
		v := View{Observed: Observed{Age: age}}
		if a.Score(ctx, v) != b.Score(ctx, v) {
			t.Fatalf("estimator:empirical not deterministic at age %d", age)
		}
	}
}
