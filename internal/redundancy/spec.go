package redundancy

// Spec strings: every redundancy policy the campaigns and the CLI can
// name resolves through Parse, in the NAME[:PARAMS] grammar of package
// spec that selection's strategies share. PARAMS is a comma-separated
// list of key=value pairs, or one bare value for the policy's primary
// parameter (adaptive's target durability). Unknown names wrap
// ErrUnknownPolicy; unknown or malformed parameters wrap ErrBadSpec.

import (
	"errors"

	"p2pbackup/internal/spec"
)

// ErrUnknownPolicy reports a spec whose name is not known.
var ErrUnknownPolicy = errors.New("redundancy: unknown policy")

// ErrBadSpec reports a recognised policy given malformed, unknown or
// misplaced parameters.
var ErrBadSpec = errors.New("redundancy: bad policy spec")

// Parse resolves a redundancy policy spec. The empty spec and "fixed",
// the paper's fixed shape, return a nil policy; "adaptive" returns one
// that still needs Bind against the concrete code shape
// (sim.Config.Validate does this). Everything Parse can check without
// the shape it checks here, so a bad spec fails before any run starts.
func Parse(s string) (*Adaptive, error) {
	if s == "" {
		return nil, nil
	}
	return spec.Parse(s, table, struct{}{}, ErrUnknownPolicy, ErrBadSpec)
}

// table is every policy spec name, in the order the unknown-name error
// lists them.
var table = []spec.Entry[struct{}, *Adaptive]{
	{Name: "fixed", Build: func(*spec.Params, struct{}) (*Adaptive, error) { return nil, nil }},
	{Name: "adaptive", Build: func(p *spec.Params, _ struct{}) (*Adaptive, error) {
		a := &Adaptive{
			Min:              p.Int("min", 0),
			Max:              p.Int("max", 0),
			TargetDurability: p.FloatPrimary("target", DefaultTargetDurability),
			Hysteresis:       p.Int("hysteresis", defaultHysteresis),
			Eval:             p.Int64("eval", defaultEvalEvery),
			Sample:           p.Int("sample", defaultSamplePeers),
		}
		if err := a.validate(0, 0); err != nil {
			return nil, err
		}
		return a, nil
	}},
}
