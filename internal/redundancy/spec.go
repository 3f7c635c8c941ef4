package redundancy

// Spec strings: every redundancy policy the campaigns and the CLI can
// name resolves through Parse, in the NAME[:PARAMS] grammar of package
// spec that selection's strategies share. PARAMS is a comma-separated
// list of key=value pairs, or one bare value for the policy's primary
// parameter (adaptive's target durability). Unknown names wrap
// ErrUnknownPolicy; unknown or malformed parameters wrap ErrBadSpec.

import (
	"errors"
	"fmt"

	"p2pbackup/internal/spec"
)

// ErrUnknownPolicy reports a spec whose name is not known.
var ErrUnknownPolicy = errors.New("redundancy: unknown policy")

// ErrBadSpec reports a recognised policy given malformed, unknown or
// misplaced parameters.
var ErrBadSpec = errors.New("redundancy: bad policy spec")

// Names lists the policy spec names in table order (fixed first).
func Names() []string { return spec.Names(table) }

// Parse resolves a redundancy policy spec. The empty spec is "fixed",
// the paper's behaviour. The returned policy still needs Bind against
// the concrete code shape (sim.Config.Validate does this).
func Parse(s string) (Policy, error) {
	if s == "" {
		s = "fixed"
	}
	return spec.Parse(s, table, struct{}{}, ErrUnknownPolicy, ErrBadSpec)
}

// table is every policy spec, in order: Names feeds campaign variant
// lists, whose seeds are index-derived, so order is part of the
// reproducibility contract. Append; never reorder.
var table = []spec.Entry[struct{}, Policy]{
	{Name: "fixed", Build: func(*spec.Params, struct{}) (Policy, error) { return Fixed{}, nil }},
	{Name: "adaptive", Build: func(p *spec.Params, _ struct{}) (Policy, error) {
		a := Adaptive{
			Min:              p.Int("min", 0),
			Max:              p.Int("max", 0),
			TargetDurability: p.FloatPrimary("target", DefaultTargetDurability),
			Hysteresis:       p.Int("hysteresis", defaultHysteresis),
			Eval:             p.Int64("eval", defaultEvalEvery),
			Sample:           p.Int("sample", defaultSamplePeers),
		}
		// Shape-independent sanity; the shape-relative checks happen at
		// Bind, once k, k' and n are known.
		if a.Min < 0 || a.Max < 0 {
			return nil, fmt.Errorf("%w: adaptive: min=%d, max=%d must be >= 0", ErrBadSpec, a.Min, a.Max)
		}
		if a.Min > 0 && a.Max > 0 && a.Min > a.Max {
			return nil, fmt.Errorf("%w: adaptive: min=%d exceeds max=%d", ErrBadSpec, a.Min, a.Max)
		}
		if !(a.TargetDurability > 0 && a.TargetDurability < 1) {
			return nil, fmt.Errorf("%w: adaptive: target=%v outside (0, 1)", ErrBadSpec, a.TargetDurability)
		}
		if a.Hysteresis < 0 {
			return nil, fmt.Errorf("%w: adaptive: hysteresis=%d must be >= 0", ErrBadSpec, a.Hysteresis)
		}
		if a.Eval < 1 {
			return nil, fmt.Errorf("%w: adaptive: eval=%d must be >= 1", ErrBadSpec, a.Eval)
		}
		if a.Sample < 1 {
			return nil, fmt.Errorf("%w: adaptive: sample=%d must be >= 1", ErrBadSpec, a.Sample)
		}
		return a, nil
	}},
}
