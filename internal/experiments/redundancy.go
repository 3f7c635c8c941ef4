package experiments

import (
	"fmt"
	"io"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/sim"
)

// This file declares the fixed-vs-adaptive redundancy campaign: the
// paper's fixed n-per-archive provisioning against the adaptive policy
// layer that retunes per-archive parity from monitored availability.
// Each churn scenario (i.i.d., diurnal, correlated shock, replayed
// trace) runs under both policies with a shared per-scenario seed, and
// the rows convert into storage-overhead and durability columns the
// aggregate repair/loss counters cannot express.

// setRedundancySpec points a variant config at a redundancy policy
// spec, clearing any pre-bound policy: a base config's Redundancy must
// not leak into a campaign that sweeps the policy (a non-nil Redundancy
// would silently win over RedundancySpec in Validate).
func setRedundancySpec(c *sim.Config, spec string) {
	c.Redundancy = nil
	c.RedundancySpec = spec
}

// RedundancyCampaign builds the fixed-vs-adaptive comparison:
// scenario blocks iid, diurnal and shock — plus replay when a trace is
// supplied — each run under the fixed policy and under adaptiveSpec.
// Both arms of a block share one block-derived seed so they start from
// identical populations; the replay block goes further and feeds both
// arms the identical churn sequence (the paired comparison).
func RedundancyCampaign(cfg sim.Config, trace *churn.Trace, adaptiveSpec string) Campaign {
	mid := cfg.Rounds / 2
	type block struct {
		name  string
		apply func(c *sim.Config)
	}
	blocks := []block{
		{"iid", func(c *sim.Config) {}},
		{"diurnal", func(c *sim.Config) {
			c.Avail = churn.DefaultDiurnalModel(0.6)
		}},
		{"shock", func(c *sim.Config) {
			c.Shocks = []sim.ShockSpec{
				{Name: "blackout-half", Round: mid, Fraction: 0.5, Outage: 2 * churn.Day},
			}
		}},
	}
	if trace != nil {
		last := trace.LastRound()
		blocks = append(blocks, block{"replay", func(c *sim.Config) {
			c.Replay = trace
			if last >= 0 && last+1 < c.Rounds {
				c.Rounds = last + 1
			}
		}})
	}
	c := Campaign{Name: "fixed-vs-adaptive", Base: cfg}
	for bi, b := range blocks {
		b := b
		seed := cfg.Seed*7368787 + uint64(bi)
		for _, spec := range []string{"fixed", adaptiveSpec} {
			spec := spec
			c.Variants = append(c.Variants, Variant{
				Name: b.name + "/" + spec,
				Seed: seed,
				Mutate: func(cc *sim.Config) {
					b.apply(cc)
					setRedundancySpec(cc, spec)
				},
			})
		}
	}
	return c
}

// RedundancyPoint is one variant's outcome: durability counters plus
// the storage and traffic bill of the redundancy policy.
type RedundancyPoint struct {
	Label      string
	Repairs    int64
	Outages    int64 // temporary losses (visible blocks dipped below k)
	HardLosses int64 // permanent object losses
	// FinalPlacements is the end-of-run stored-block count; Overhead
	// normalises it to data blocks: stored blocks per data block across
	// the population (the fixed policy's ceiling is n/k).
	FinalPlacements int
	Overhead        float64
	// MeanRedundancy is the last sampled mean per-archive target n(t)
	// (the configured n under the fixed policy, which never samples).
	MeanRedundancy float64
	Grows          int64
	Shrinks        int64
	ParityAdded    int64
	ParityDropped  int64
	// ParityCostHours prices the grow traffic: ParityAdded blocks pushed
	// up the paper's reference DSL uplink at the variant's code shape
	// (costmodel.ParityUploadCost), in hours.
	ParityCostHours float64
}

// RedundancyResult is the labelled fixed-vs-adaptive comparison.
type RedundancyResult struct {
	Name   string
	Points []RedundancyPoint
}

// RedundancyFromRows converts the campaign's rows, in variant order.
func RedundancyFromRows(name string, rows []Row) (*RedundancyResult, error) {
	points := make([]RedundancyPoint, 0, len(rows))
	for _, row := range rows {
		col := row.Result.Collector
		cfg := row.Config
		p := RedundancyPoint{
			Label:           row.Name,
			Repairs:         col.TotalRepairs(),
			Outages:         col.TotalLosses(),
			HardLosses:      col.TotalHardLosses(),
			FinalPlacements: row.Result.FinalPlacements,
			Overhead:        float64(row.Result.FinalPlacements) / float64(cfg.NumPeers*cfg.DataBlocks),
			MeanRedundancy:  float64(cfg.TotalBlocks),
			Grows:           col.RedundancyGrows(),
			Shrinks:         col.RedundancyShrinks(),
			ParityAdded:     col.ParityBlocksAdded(),
			ParityDropped:   col.ParityBlocksReclaimed(),
		}
		if s := col.RedundancySeries(); s.Len() > 0 {
			_, p.MeanRedundancy = s.Last()
		}
		if p.ParityAdded > 0 {
			code := costmodel.Code{
				ArchiveBytes: 128 * costmodel.MB,
				K:            cfg.DataBlocks,
				M:            cfg.TotalBlocks - cfg.DataBlocks,
			}
			perBlock, err := costmodel.ParityUploadCost(code, 1, costmodel.DSL2009())
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", row.Name, err)
			}
			p.ParityCostHours = perBlock.Hours() * float64(p.ParityAdded)
		}
		points = append(points, p)
	}
	return &RedundancyResult{Name: name, Points: points}, nil
}

// WriteTSV emits the fixed-vs-adaptive comparison.
func (r *RedundancyResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# redundancy campaign: %s (overhead = stored blocks per data block; parity cost on the 2009 DSL uplink)\n"+
		"#variant\trepairs\toutages\thard_losses\tfinal_placements\toverhead\tmean_n\t"+
		"grows\tshrinks\tparity_added\tparity_dropped\tparity_cost_h\n", r.Name); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.6g\t%.6g\t%d\t%d\t%d\t%d\t%.6g\n",
			p.Label, p.Repairs, p.Outages, p.HardLosses, p.FinalPlacements, p.Overhead, p.MeanRedundancy,
			p.Grows, p.Shrinks, p.ParityAdded, p.ParityDropped, p.ParityCostHours); err != nil {
			return err
		}
	}
	return nil
}

// redundancyAdaptiveSpec picks the campaign's adaptive arm: the
// -redundancy override when it names an adaptive policy, the default
// otherwise.
func redundancyAdaptiveSpec(override string) string {
	if override != "" {
		if pol, err := redundancy.Parse(override); err == nil && !pol.Static() {
			return override
		}
	}
	return "adaptive"
}

// reportRedundancy reports the fixed-vs-adaptive comparison.
func reportRedundancy(campaign string, rows []Row) (report, error) {
	res, err := RedundancyFromRows(campaign, rows)
	if err != nil {
		return report{}, err
	}
	text := fmt.Sprintf("%-20s %9s %7s %7s %9s %7s %6s/%-6s %12s\n",
		"variant", "overhead", "mean_n", "hard", "outages", "grows", "shrink", "parity", "cost_h")
	for _, p := range res.Points {
		text += fmt.Sprintf("%-20s %9.4f %7.2f %7d %9d %7d %6d/%-6d %12.1f\n",
			p.Label, p.Overhead, p.MeanRedundancy, p.HardLosses, p.Outages,
			p.Grows, p.Shrinks, p.ParityAdded, p.ParityCostHours)
	}
	return report{name: res.Name, emit: []func(io.Writer) error{res.WriteTSV}, text: text}, nil
}
