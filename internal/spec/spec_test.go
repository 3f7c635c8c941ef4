package spec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/spec"
)

// accessor is what a builder reads parameters through, in either parser.
type accessor interface {
	Int(key string, def int) int
	Int64(key string, def int64) int64
	Int64Primary(key string, def int64) int64
	Float(key string, def float64) float64
	FloatPrimary(key string, def float64) float64
}

// read is one accessor call a test builder makes.
type read struct{ kind, key string }

// entries is the table both parsers resolve against: the names of
// selection's and redundancy's tables reading the keys their builders
// read, and "a" / "a:b" for the longest-name rule.
var entries = []struct {
	name  string
	reads []read
}{
	{"age", []read{{"int64p", "L"}}},
	{"random", nil},
	{"estimator:age", []read{{"int64p", "L"}}},
	{"estimator:pareto", []read{{"float", "alpha"}, {"float", "xm"}}},
	{"estimator:empirical", []read{{"int64p", "n"}}},
	{"monitored-availability", []read{{"int64p", "W"}}},
	{"fixed", nil},
	{"adaptive", []read{{"int", "min"}, {"int", "max"}, {"floatp", "target"}, {"int", "hysteresis"}, {"int64", "eval"}, {"int", "sample"}}},
	{"a", []read{{"int", "x"}}},
	{"a:b", []read{{"floatp", "y"}}},
}

// build is every test builder: it makes its reads, fails (with the
// caller's bad-spec sentinel) on a negative value, and otherwise renders
// what it read.
func build(a accessor, name string, reads []read, bad error) (string, error) {
	var out []string
	negative := false
	for _, r := range reads {
		var v float64
		switch r.kind {
		case "int":
			v = float64(a.Int(r.key, 3))
		case "int64":
			v = float64(a.Int64(r.key, 3))
		case "int64p":
			v = float64(a.Int64Primary(r.key, 3))
		case "float":
			v = a.Float(r.key, 0.5)
		case "floatp":
			v = a.FloatPrimary(r.key, 0.5)
		}
		negative = negative || v < 0
		out = append(out, fmt.Sprint(v))
	}
	if negative {
		return "", fmt.Errorf("%w: %s: negative value", bad, name)
	}
	return name + "(" + strings.Join(out, ",") + ")", nil
}

// sentinels are the two callers' pairs: unknown name, bad parameter.
var sentinels = [][2]error{
	{selection.ErrUnknownStrategy, selection.ErrBadSpec},
	{redundancy.ErrUnknownPolicy, redundancy.ErrBadSpec},
}

// table is entries as the shared parser's table under one bad sentinel.
func table(bad error) []spec.Entry[struct{}, string] {
	var t []spec.Entry[struct{}, string]
	for _, e := range entries {
		t = append(t, spec.Entry[struct{}, string]{Name: e.name, Build: func(p *spec.Params, _ struct{}) (string, error) {
			return build(p, e.name, e.reads, bad)
		}})
	}
	return t
}

// useOracle points the oracle's package-scope registry and sentinels at
// entries and one pair.
func useOracle(pair [2]error) {
	ErrUnknownStrategy, ErrBadSpec = pair[0], pair[1]
	registryNames, registry = nil, map[string]Builder{}
	for _, e := range entries {
		registryNames = append(registryNames, e.name)
		registry[e.name] = func(p *SpecParams) (Policy, error) { return build(p, e.name, e.reads, ErrBadSpec) }
	}
}

// differ parses s with both parsers under every sentinel pair and
// describes the first difference in outcome, sentinel or error text.
func differ(s string) string {
	for _, pair := range sentinels {
		useOracle(pair)
		want, wantErr := ParseWith(s)
		got, err := spec.Parse(s, table(pair[1]), struct{}{}, pair[0], pair[1])
		switch {
		case (err == nil) != (wantErr == nil):
			return fmt.Sprintf("%q: error %v, oracle %v", s, err, wantErr)
		case err == nil && got != want:
			return fmt.Sprintf("%q: %s, oracle %s", s, got, want)
		case err == nil:
		case errors.Is(err, pair[0]) != errors.Is(wantErr, pair[0]) || errors.Is(err, pair[1]) != errors.Is(wantErr, pair[1]):
			return fmt.Sprintf("%q: %v wraps another sentinel than the oracle's %v", s, err, wantErr)
		case err.Error() != wantErr.Error():
			return fmt.Sprintf("%q: error %q, oracle %q", s, err, wantErr)
		}
	}
	return ""
}

// grammarCases reach every branch of the grammar: names with and without
// colons, positional and keyed values, each malformation, and each pair
// of errors that could race for first place.
var grammarCases = []string{
	"", ":", ":::", "nope", "agee", "estimator", "estimator:nope", "fixed2:1", "adaptive2:min=1",
	"age", "age:", "age:L=48", "age:48", "age:L=xyz", "age:K=5", "age:L=5,L=6", "age:5,L=6",
	"age:L=", "age:=5", "age:,", "age:L=5,", "age: L=5 ", "age:L = 5", "age:L=-4",
	"age:L=9223372036854775808", "age:L=+5", "age:L=0x10", "age:L=1_000",
	"random", "random:5", "random:L=5", "random:b=1,a=2,5x=3",
	"estimator:age", "estimator:age:W=5", "estimator:pareto:alpha=2.5,xm=24",
	"estimator:pareto:alpha=NaN", "estimator:pareto:alpha=x,xm=y", "estimator:pareto:beta=2",
	"estimator:pareto:2", "estimator:empirical:n=64", "monitored-availability:720",
	"monitored-availability:W=720", "monitored-availability:L=10",
	"fixed", "fixed:1", "adaptive", "adaptive:0.95", "adaptive:min=160,max=256,target=0.95",
	"adaptive:target=0.9,hysteresis=4,eval=48,sample=8", "adaptive:0.9,target=0.8",
	"adaptive:min=-1", "adaptive:min=-1,bogus=2", "adaptive:min=x,bogus=1", "adaptive:min=x,max=y",
	"adaptive:min=1,min=2", "adaptive:min=", "adaptive:eval=9223372036854775807",
	"adaptive:min=9223372036854775808", "adaptive:target=Inf",
	"a", "a:", "a:x=1", "a:1", "a:b", "a:b:", "a:b:y=1", "a:b:1", "a:b:x=1", "a:b:y=-1,z=2",
	"a:bc", "a::", "a:b:c:y=1", "a:x=1:b",
}

func TestGrammarMatchesOracle(t *testing.T) {
	for _, s := range grammarCases {
		if d := differ(s); d != "" {
			t.Error(d)
		}
	}
}

func TestNamesInTableOrder(t *testing.T) {
	got := spec.Names(table(nil))
	if len(got) != len(entries) {
		t.Fatalf("Names = %v", got)
	}
	for i, e := range entries {
		if got[i] != e.name {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], e.name)
		}
	}
}

// FuzzGrammar holds the shared parser to the oracle on arbitrary specs;
// testdata holds seeds beyond grammarCases.
func FuzzGrammar(f *testing.F) {
	for _, s := range grammarCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d := differ(s); d != "" {
			t.Fatal(d)
		}
	})
}
