package spec_test

// The grammar spec replaced, kept as the oracle it is held to:
// selection's SpecParams accessors, splitSpec, parseParams and the
// unused-key check of ParseWith, plus the two accessors only
// redundancy's copy had (Int, FloatPrimary), verbatim from the commit
// before package spec existed. Two things are gone: the Defaults field,
// and Policy, for which the oracle's builders produce strings. The copy
// reads its registry and sentinel errors from package scope, as the
// original did; useOracle points them at one table and one sentinel
// pair.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

type Policy = string

var (
	registryNames      []string
	registry           map[string]Builder
	ErrUnknownStrategy error
	ErrBadSpec         error
)

// SpecParams gives a Builder typed access to a spec's parameters. Every
// accessor consumes its key; Parse rejects the spec if any parameter is
// left unconsumed, so strategies cannot silently ignore arguments.
type SpecParams struct {
	name string
	kv   map[string]string
	used map[string]bool
	err  error
}

// fail records the first parameter error.
func (p *SpecParams) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// lookup consumes key (or, when primary, the bare positional value).
func (p *SpecParams) lookup(key string, primary bool) (string, bool) {
	if v, ok := p.kv[key]; ok {
		p.used[key] = true
		return v, ok
	}
	if primary {
		if v, ok := p.kv[""]; ok {
			p.used[""] = true
			return v, ok
		}
	}
	return "", false
}

// Int64 returns the named integer parameter, or def when absent.
func (p *SpecParams) Int64(key string, def int64) int64 {
	return p.int64(key, def, false)
}

// Int64Primary is Int64 that also accepts the spec's bare positional
// value ("monitored-availability:720").
func (p *SpecParams) Int64Primary(key string, def int64) int64 {
	return p.int64(key, def, true)
}

func (p *SpecParams) int64(key string, def int64, primary bool) int64 {
	s, ok := p.lookup(key, primary)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		p.fail(fmt.Errorf("%w: %s: parameter %s=%q is not an integer", ErrBadSpec, p.name, key, s))
		return def
	}
	return v
}

// Float returns the named float parameter, or def when absent.
func (p *SpecParams) Float(key string, def float64) float64 {
	s, ok := p.lookup(key, false)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.fail(fmt.Errorf("%w: %s: parameter %s=%q is not a number", ErrBadSpec, p.name, key, s))
		return def
	}
	return v
}

// Int returns the named integer parameter, or def when absent.
func (p *SpecParams) Int(key string, def int) int {
	s, ok := p.lookup(key, false)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.fail(fmt.Errorf("%w: %s: parameter %s=%q is not an integer", ErrBadSpec, p.name, key, s))
		return def
	}
	return v
}

// FloatPrimary returns the named float parameter, also accepting the
// spec's bare positional value ("adaptive:0.95"), or def when absent.
func (p *SpecParams) FloatPrimary(key string, def float64) float64 {
	s, ok := p.lookup(key, true)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.fail(fmt.Errorf("%w: %s: parameter %s=%q is not a number", ErrBadSpec, p.name, key, s))
		return def
	}
	return v
}

// Builder constructs a Policy from a parsed spec.
type Builder func(p *SpecParams) (Policy, error)

// Names lists the registered spec names in registration order (the
// built-ins first, in their historical order).
func Names() []string {
	return append([]string(nil), registryNames...)
}

// ParseWith resolves a strategy spec. (The original's empty-spec default
// and Defaults argument belong to the callers, not to the grammar.)
func ParseWith(spec string) (Policy, error) {
	name, params, err := splitSpec(spec)
	if err != nil {
		return "", err
	}
	kv, err := parseParams(name, params)
	if err != nil {
		return "", err
	}
	sp := &SpecParams{name: name, kv: kv, used: make(map[string]bool, len(kv))}
	pol, err := registry[name](sp)
	if err != nil {
		return "", err
	}
	if sp.err != nil {
		return "", sp.err
	}
	var unused []string
	for k := range kv {
		if !sp.used[k] {
			if k == "" {
				k = "(positional value)"
			}
			unused = append(unused, k)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		return "", fmt.Errorf("%w: %s does not take parameter(s) %s",
			ErrBadSpec, name, strings.Join(unused, ", "))
	}
	return pol, nil
}

// splitSpec finds the longest registered name that is the whole spec or
// a prefix of it followed by ':'; the remainder is the parameter list.
func splitSpec(spec string) (name, params string, err error) {
	if _, ok := registry[spec]; ok {
		return spec, "", nil
	}
	best := -1
	for i := len(spec) - 1; i > 0; i-- {
		if spec[i] != ':' {
			continue
		}
		if _, ok := registry[spec[:i]]; ok {
			best = i
			break
		}
	}
	if best < 0 {
		return "", "", fmt.Errorf("%w: %q (want one of %v)", ErrUnknownStrategy, spec, Names())
	}
	return spec[:best], spec[best+1:], nil
}

// parseParams splits "k1=v1,k2=v2" (or one bare value) into a map; the
// bare value is stored under the empty key.
func parseParams(name, params string) (map[string]string, error) {
	kv := map[string]string{}
	if params == "" {
		return kv, nil
	}
	for _, part := range strings.Split(params, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("%w: %s: empty parameter", ErrBadSpec, name)
		}
		k, v, found := strings.Cut(part, "=")
		if !found {
			k, v = "", part
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("%w: %s: duplicate parameter %q", ErrBadSpec, name, part)
		}
		if found && (k == "" || v == "") {
			return nil, fmt.Errorf("%w: %s: malformed parameter %q", ErrBadSpec, name, part)
		}
		kv[k] = v
	}
	if _, bare := kv[""]; bare && len(kv) > 1 {
		return nil, fmt.Errorf("%w: %s: positional value mixed with keyed parameters", ErrBadSpec, name)
	}
	return kv, nil
}
