package experiments

import (
	"fmt"

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
// the campaign's table reports storage-overhead and durability columns
// the aggregate repair/loss counters cannot express.

// redundancyCampaign builds the fixed-vs-adaptive comparison:
// scenario blocks iid, diurnal and shock — plus replay when a trace is
// supplied — each run under the fixed policy and under adaptiveSpec.
// Both arms of a block share one block-derived seed so they start from
// identical populations; the replay block goes further and feeds both
// arms the identical churn sequence (the paired comparison).
func redundancyCampaign(cfg sim.Config, trace *churn.Trace, adaptiveSpec string) Campaign {
	mid := cfg.Rounds / 2
	type block struct {
		name  string
		apply func(c *sim.Config)
	}
	blocks := []block{
		{"iid", func(c *sim.Config) {}},
		{"diurnal", func(c *sim.Config) {
			c.AvailSpec = "diurnal:0.6"
		}},
		{"shock", func(c *sim.Config) {
			c.Shocks = []sim.ShockSpec{
				{Name: "blackout-half", Round: mid, Fraction: 0.5, Outage: 2 * churn.Day},
			}
		}},
	}
	if trace != nil {
		blocks = append(blocks, block{"replay", func(c *sim.Config) { replay(c, trace) }})
	}
	c := Campaign{Name: "fixed-vs-adaptive", Base: cfg}
	for bi, b := range blocks {
		seed := cfg.Seed*7368787 + uint64(bi)
		for _, spec := range []string{"fixed", adaptiveSpec} {
			c.Variants = append(c.Variants, Variant{
				Name: b.name + "/" + spec,
				Seed: seed,
				Mutate: func(cc *sim.Config) {
					b.apply(cc)
					cc.RedundancySpec = spec
				},
			})
		}
	}
	return c
}

// overhead is a row's end-of-run stored blocks per data block across
// the population (the fixed policy's ceiling is n/k).
func overhead(r Row) float64 {
	return float64(r.Result.FinalPlacements) / float64(r.Config.NumPeers*r.Config.DataBlocks)
}

// meanRedundancy is the last sampled mean per-archive target n(t): the
// configured n under the fixed policy, which never samples.
func meanRedundancy(r Row) float64 {
	if s := r.Result.Collector.RedundancySeries(); s.Len() > 0 {
		_, n := s.Last()
		return n
	}
	return float64(r.Config.TotalBlocks)
}

// parityCostHours prices a row's grow traffic: the parity blocks added,
// pushed up the paper's reference DSL uplink at the row's code shape, in
// hours.
func parityCostHours(r Row) float64 {
	return costmodel.ParityCostHours(r.Config.DataBlocks, r.Config.TotalBlocks, r.Result.Collector.ParityBlocksAdded())
}

// redundancyTable is the fixed-vs-adaptive data file: durability
// counters plus the storage and traffic bill of each policy.
var redundancyTable = []table{{
	file:    "scenario_redundancy.tsv",
	comment: "redundancy campaign: fixed-vs-adaptive (overhead = stored blocks per data block; parity cost on the 2009 DSL uplink)",
	columns: []column{variantCol, repairsCol,
		{"outages", "%d", func(r Row) any { return r.Result.Collector.TotalLosses() }},
		{"hard_losses", "%d", func(r Row) any { return r.Result.Collector.TotalHardLosses() }},
		{"final_placements", "%d", func(r Row) any { return r.Result.FinalPlacements }},
		{"overhead", "%.6g", func(r Row) any { return overhead(r) }},
		{"mean_n", "%.6g", func(r Row) any { return meanRedundancy(r) }},
		{"grows", "%d", func(r Row) any { return r.Result.Collector.RedundancyGrows() }},
		{"shrinks", "%d", func(r Row) any { return r.Result.Collector.RedundancyShrinks() }},
		{"parity_added", "%d", func(r Row) any { return r.Result.Collector.ParityBlocksAdded() }},
		{"parity_dropped", "%d", func(r Row) any { return r.Result.Collector.ParityBlocksReclaimed() }},
		{"parity_cost_h", "%.6g", func(r Row) any { return parityCostHours(r) }},
	},
}}

// redundancyAdaptiveSpec picks the campaign's adaptive arm: the
// -redundancy override when it names an adaptive policy, the default
// otherwise.
func redundancyAdaptiveSpec(override string) string {
	if override != "" {
		if pol, err := redundancy.Parse(override); err == nil && pol != nil {
			return override
		}
	}
	return "adaptive"
}

// redundancyText summarises the fixed-vs-adaptive comparison.
func redundancyText(rows []Row) (string, error) {
	text := fmt.Sprintf("%-20s %9s %7s %7s %9s %7s %6s/%-6s %12s\n",
		"variant", "overhead", "mean_n", "hard", "outages", "grows", "shrink", "parity", "cost_h")
	for _, r := range rows {
		col := r.Result.Collector
		text += fmt.Sprintf("%-20s %9.4f %7.2f %7d %9d %7d %6d/%-6d %12.1f\n",
			r.Name, overhead(r), meanRedundancy(r), col.TotalHardLosses(), col.TotalLosses(),
			col.RedundancyGrows(), col.RedundancyShrinks(), col.ParityBlocksAdded(), parityCostHours(r))
	}
	return text, nil
}
