package selection

// Spec strings: every strategy point the campaigns and the CLI can name
// resolves through Parse, in the NAME[:PARAMS] grammar of package spec
// that redundancy's policies share:
//
//	age                     paper strategy, L = default horizon
//	age:L=2160              paper strategy, explicit horizon in rounds
//	estimator:pareto        rank by a Pareto lifetime model
//	estimator:pareto:alpha=1.5,xm=24
//	estimator:empirical:n=256
//	monitored-availability:720   rank by monitored uptime, 720-round window
//
// Names may themselves contain colons (the longest known name wins), and
// PARAMS is a comma-separated list of key=value pairs, or one bare value
// for the strategy's primary parameter. Unknown names wrap
// ErrUnknownStrategy; unknown or malformed parameters wrap ErrBadSpec.

import (
	"errors"
	"fmt"
	"math"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/spec"
)

// ErrBadSpec reports a recognised strategy given malformed, unknown or
// misplaced parameters.
var ErrBadSpec = errors.New("selection: bad strategy spec")

// defaultHorizon is the age horizon used when a spec omits one: the
// paper's 90 days in rounds.
const defaultHorizon int64 = 90 * 24

// maxHorizon bounds the age policy's horizon: about 120 years of hourly
// rounds. Its acceptance is negotiated from a table of 2L+1 entries
// (AcceptTable), 16 MiB at the bound.
const maxHorizon int64 = 1 << 20

// Defaults supplies context-dependent fallbacks for parameters a spec
// omits.
type Defaults struct {
	// Horizon is the age horizon L (and the default
	// monitored-availability window), in rounds. <= 0 means
	// defaultHorizon.
	Horizon int64
}

func (d Defaults) horizon() int64 {
	if d.Horizon > 0 {
		return d.Horizon
	}
	return defaultHorizon
}

// Names lists the strategy spec names in table order (the historical
// five first).
func Names() []string { return spec.Names(table) }

// Parse resolves a strategy spec with paper defaults (90-day horizon).
func Parse(s string) (Policy, error) {
	return ParseWith(s, Defaults{})
}

// ParseWith resolves a strategy spec, using d for parameters the spec
// omits. The empty spec is the paper's age strategy.
func ParseWith(s string, d Defaults) (Policy, error) {
	if s == "" {
		s = "age"
	}
	return spec.Parse(s, table, d, ErrUnknownStrategy, ErrBadSpec)
}

// ---------------------------------------------------------------------------
// Built-in specs

// Default parameters of the estimator-backed specs.
const (
	// defaultParetoAlpha is the default tail exponent of
	// estimator:pareto — heavy-tailed (the regime the paper assumes)
	// with a finite conditional mean.
	defaultParetoAlpha = 1.5
	// defaultParetoXm is the default Pareto scale floor in rounds.
	defaultParetoXm = 1.0
	// DefaultEmpiricalSamples is the default sample count backing
	// estimator:empirical.
	DefaultEmpiricalSamples = 512
)

// empiricalSampleSeed fixes the synthetic observation draw backing
// estimator:empirical, keeping the spec deterministic.
const empiricalSampleSeed = 0x9a0e57ab11d3f24d

// defaultEmpiricalSamples draws n complete lifetimes from the paper's
// profile population (skipping the immortal durable profile, which
// never yields an observed lifetime) with a fixed seed, so
// estimator:empirical is a deterministic function of its spec. Note
// that those lifetimes are bounded uniform mixtures, not heavy-tailed:
// the resulting plug-in estimate is monotone in age only across the
// erratic band, so estimator:empirical deliberately diverges from age
// ranking for older peers — the divergence the ablation-estimator
// experiment measures.
func defaultEmpiricalSamples(n int) []float64 {
	ps := churn.PaperProfiles()
	r := rng.New(empiricalSampleSeed)
	out := make([]float64, 0, n)
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		life := ps.SampleLifetime(r, ps.SampleIndex(r))
		if life <= 0 || life >= 20*churn.Year {
			continue // immortal profile: no complete lifetime observable
		}
		out = append(out, float64(life))
	}
	return out
}

// table is every strategy spec, in order: Names feeds the strategy
// campaigns, whose variant seeds are index-derived, so order is part of
// the reproducibility contract. Append; never reorder.
var table = []spec.Entry[Defaults, Policy]{
	{Name: "age", Build: func(p *spec.Params, d Defaults) (Policy, error) {
		l := p.Int64Primary("L", d.horizon())
		if l <= 0 {
			return nil, fmt.Errorf("%w: age: horizon L=%d must be positive", ErrBadSpec, l)
		}
		if l > maxHorizon {
			return nil, fmt.Errorf("%w: age: horizon L=%d exceeds %d rounds", ErrBadSpec, l, maxHorizon)
		}
		return agePolicy{L: l}, nil
	}},
	{Name: "random", Build: func(*spec.Params, Defaults) (Policy, error) { return randomPolicy{}, nil }},
	{Name: "availability-oracle", Build: func(*spec.Params, Defaults) (Policy, error) { return availOraclePolicy{}, nil }},
	{Name: "lifetime-oracle", Build: func(*spec.Params, Defaults) (Policy, error) { return lifetimeOraclePolicy{}, nil }},
	{Name: "youngest-first", Build: func(*spec.Params, Defaults) (Policy, error) { return youngestPolicy{}, nil }},
	{Name: "estimator:age", Build: func(p *spec.Params, d Defaults) (Policy, error) {
		l := p.Int64Primary("L", d.horizon())
		if l <= 0 {
			return nil, fmt.Errorf("%w: estimator:age: horizon L=%d must be positive", ErrBadSpec, l)
		}
		return EstimatorRanked{Est: lifetime.AgeRank{Horizon: float64(l)}, Label: "estimator:age"}, nil
	}},
	{Name: "estimator:pareto", Build: func(p *spec.Params, _ Defaults) (Policy, error) {
		alpha := p.Float("alpha", defaultParetoAlpha)
		xm := p.Float("xm", defaultParetoXm)
		// Negated comparisons so NaN parameters fail too.
		if !(alpha > 1) || !(xm > 0) || math.IsInf(alpha, 1) || math.IsInf(xm, 1) {
			return nil, fmt.Errorf("%w: estimator:pareto: need finite alpha > 1 and xm > 0 (got alpha=%v, xm=%v)",
				ErrBadSpec, alpha, xm)
		}
		return EstimatorRanked{Est: lifetime.ParetoModel{Xm: xm, Alpha: alpha}, Label: "estimator:pareto"}, nil
	}},
	{Name: "estimator:empirical", Build: func(p *spec.Params, _ Defaults) (Policy, error) {
		const maxSamples = 1 << 16 // bounds parse-time sampling work and memory
		n := p.Int64Primary("n", DefaultEmpiricalSamples)
		if n < 2 || n > maxSamples {
			return nil, fmt.Errorf("%w: estimator:empirical: need 2 <= n <= %d samples (got %d)",
				ErrBadSpec, maxSamples, n)
		}
		model, err := lifetime.NewEmpiricalModel(defaultEmpiricalSamples(int(n)))
		if err != nil {
			return nil, fmt.Errorf("selection: estimator:empirical: %w", err)
		}
		return EstimatorRanked{Est: model, Label: "estimator:empirical"}, nil
	}},
	{Name: "monitored-availability", Build: func(p *spec.Params, d Defaults) (Policy, error) {
		w := p.Int64Primary("W", d.horizon())
		if w <= 0 {
			return nil, fmt.Errorf("%w: monitored-availability: window W=%d must be positive", ErrBadSpec, w)
		}
		return MonitoredAvailability{Window: w}, nil
	}},
}
