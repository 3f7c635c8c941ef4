// Package spec is the one NAME[:PARAMS] grammar behind every policy
// spec string the campaigns and the CLI accept: selection's strategies
// ("age:L=2160", "estimator:pareto:alpha=1.5,xm=24"), redundancy's
// policies ("adaptive:min=160,max=256,target=0.95") and churn's
// availability models ("diurnal:0.8").
//
// NAME is one of the caller's table names, which may contain colons:
// the longest name that is the whole spec, or a prefix of it followed by
// ':', wins. PARAMS is a comma-separated list of key=value pairs, or one
// bare value for the builder's primary parameter. The builder consumes
// parameters through Params; a parameter it leaves unconsumed rejects
// the spec. The caller supplies its own two sentinel errors — one for
// an unknown name, one for a bad parameter — and every error wraps one
// of them.
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Entry is one named builder of a caller's table. C is what the caller
// passes every builder alongside the parameters (its defaults), T what
// a builder produces.
type Entry[C, T any] struct {
	// Name is the spec name; it may contain colons but not "=", "," or
	// spaces.
	Name string
	// Build makes the value from the spec's parameters.
	Build func(p *Params, c C) (T, error)
}

// Names lists the table's names in table order.
func Names[C, T any](table []Entry[C, T]) []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Parse resolves s against table, handing c to the builder. Unknown
// names wrap unknown; malformed, unknown or misplaced parameters wrap
// bad. The first error wins: the split, then the builder's own error,
// then a parameter the builder could not read, then the parameters it
// did not read at all.
func Parse[C, T any](s string, table []Entry[C, T], c C, unknown, bad error) (T, error) {
	var zero T
	e, params, ok := split(s, table)
	if !ok {
		return zero, fmt.Errorf("%w: %q (want one of %v)", unknown, s, Names(table))
	}
	p := &Params{name: e.Name, bad: bad}
	if err := p.parse(params); err != nil {
		return zero, err
	}
	v, err := e.Build(p, c)
	if err != nil {
		return zero, err
	}
	if p.err != nil {
		return zero, p.err
	}
	var unused []string
	for k := range p.kv {
		if !p.used[k] {
			if k == "" {
				k = "(positional value)"
			}
			unused = append(unused, k)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		return zero, fmt.Errorf("%w: %s does not take parameter(s) %s",
			bad, e.Name, strings.Join(unused, ", "))
	}
	return v, nil
}

// split finds the longest table name that is the whole spec or a prefix
// of it followed by ':'; the remainder is the parameter list.
func split[C, T any](s string, table []Entry[C, T]) (Entry[C, T], string, bool) {
	for i := len(s); i > 0; i-- {
		if i < len(s) && s[i] != ':' {
			continue
		}
		for _, e := range table {
			if e.Name == s[:i] {
				return e, strings.TrimPrefix(s[i:], ":"), true
			}
		}
	}
	return Entry[C, T]{}, "", false
}

// Params gives a builder typed access to a spec's parameters. Every
// accessor consumes its key; Parse rejects the spec if any parameter is
// left unconsumed, so builders cannot silently ignore arguments.
type Params struct {
	name string
	bad  error
	kv   map[string]string // the bare positional value under ""
	used map[string]bool
	err  error // the first parameter that did not convert
}

// parse splits "k1=v1,k2=v2" (or one bare value) into p.kv.
func (p *Params) parse(params string) error {
	p.kv, p.used = map[string]string{}, map[string]bool{}
	if params == "" {
		return nil
	}
	for _, part := range strings.Split(params, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("%w: %s: empty parameter", p.bad, p.name)
		}
		k, v, found := strings.Cut(part, "=")
		if !found {
			k, v = "", part
		}
		if _, dup := p.kv[k]; dup {
			return fmt.Errorf("%w: %s: duplicate parameter %q", p.bad, p.name, part)
		}
		if found && (k == "" || v == "") {
			return fmt.Errorf("%w: %s: malformed parameter %q", p.bad, p.name, part)
		}
		p.kv[k] = v
	}
	if _, bare := p.kv[""]; bare && len(p.kv) > 1 {
		return fmt.Errorf("%w: %s: positional value mixed with keyed parameters", p.bad, p.name)
	}
	return nil
}

// lookup consumes key (or, when primary, the bare positional value).
func (p *Params) lookup(key string, primary bool) (string, bool) {
	if v, ok := p.kv[key]; ok {
		p.used[key] = true
		return v, true
	}
	if v, ok := p.kv[""]; ok && primary {
		p.used[""] = true
		return v, true
	}
	return "", false
}

// convert reads key with conv, or returns def when it is absent; a value
// conv rejects records the first parameter error and also returns def.
func convert[V any](p *Params, key string, def V, primary bool, what string, conv func(string) (V, error)) V {
	s, ok := p.lookup(key, primary)
	if !ok {
		return def
	}
	v, err := conv(s)
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("%w: %s: parameter %s=%q is not %s", p.bad, p.name, key, s, what)
		}
		return def
	}
	return v
}

func parseInt64(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat64(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// Int returns the named integer parameter, or def when absent.
func (p *Params) Int(key string, def int) int {
	return convert(p, key, def, false, "an integer", strconv.Atoi)
}

// Int64 returns the named 64-bit integer parameter, or def when absent.
func (p *Params) Int64(key string, def int64) int64 {
	return convert(p, key, def, false, "an integer", parseInt64)
}

// Int64Primary is Int64 that also accepts the spec's bare positional
// value ("monitored-availability:720").
func (p *Params) Int64Primary(key string, def int64) int64 {
	return convert(p, key, def, true, "an integer", parseInt64)
}

// Float returns the named float parameter, or def when absent.
func (p *Params) Float(key string, def float64) float64 {
	return convert(p, key, def, false, "a number", parseFloat64)
}

// FloatPrimary is Float that also accepts the spec's bare positional
// value ("adaptive:0.95").
func (p *Params) FloatPrimary(key string, def float64) float64 {
	return convert(p, key, def, true, "a number", parseFloat64)
}
