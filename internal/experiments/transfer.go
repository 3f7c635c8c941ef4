package experiments

import (
	"fmt"
	"slices"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// This file declares the transfer-scheduling campaigns: bandwidth-class
// comparisons, the restore flash crowd, and the uplink sweep. They
// follow the ablation pattern (labelled variants with index-derived
// seeds) but their table adds columns for the time-to-backup and
// time-to-restore distributions the aggregate repair/loss counters
// cannot express.

// transferBaselineCampaign compares the bandwidth presets on identical
// populations: the degenerate instant mode (the engine's historical
// immediate placement), a uniform DSL population, the 50/50 DSL/FTTH
// mix, and the slow-uplink skewed population. Repair and loss counts
// show what metered uplinks cost; the time-to-backup distribution shows
// where the cost comes from. Like every campaign that sweeps the
// bandwidth mix, it overrides whatever BandwidthSpec the base config
// (or Options.Bandwidth) carried.
func transferBaselineCampaign(cfg sim.Config) Campaign {
	specs := transfer.Presets()
	return ablationCampaign(cfg, "transfer-baseline", specs, func(c *sim.Config, i int) {
		c.BandwidthSpec = specs[i]
	})
}

// flashCrowdCampaign is the restore flash crowd: a mid-run blackout
// knocks out part of the population, and shortly after, half the peers
// demand their archives back at once. Under instant links the crowd is
// absorbed in a round; under metered links the demanders' downlinks and
// the hosts' uplinks shape a time-to-restore distribution with a heavy
// tail. Variants compare instant, uniform-DSL and skewed populations on
// an identical shock-and-demand schedule.
func flashCrowdCampaign(cfg sim.Config) Campaign {
	mid := cfg.Rounds / 2
	specs := []string{"instant", "dsl", "skewed"}
	return ablationCampaign(cfg, "flashcrowd", specs, func(c *sim.Config, i int) {
		c.BandwidthSpec = specs[i]
		c.Shocks = []sim.ShockSpec{
			{Name: "flash-blackout", Round: mid, Fraction: 0.4, Outage: 2 * churn.Day},
		}
		c.Restores = []sim.RestoreSpec{
			{Name: "flash-crowd", Round: mid + 12, Fraction: 0.5},
		}
	})
}

// uplinkFactors is the uplink sweep: multipliers on the paper's DSL
// uplink (32 kB/s), downlink held fixed.
var uplinkFactors = []float64{0.25, 0.5, 1, 2, 4}

// uplinkSweepCampaign sweeps the population's uplink rate across a
// uniform DSL-class population, with the legacy budget-mode engine
// (instant placement, per-round upload budget) as the baseline: the
// paper's section 2.2.4 collapses bandwidth to that budget, and this
// sweep measures what the collapse hides as uplinks slow down.
func uplinkSweepCampaign(cfg sim.Config) Campaign {
	labels := []string{"budget"}
	for _, f := range uplinkFactors {
		labels = append(labels, fmt.Sprintf("up=%.3gx", f))
	}
	return ablationCampaign(cfg, "uplink-sweep", labels, func(c *sim.Config, i int) {
		c.BandwidthSpec = "instant"
		if i > 0 {
			c.BandwidthSpec = uplinkSpec(uplinkFactors[i-1])
		}
	})
}

// uplinkSpec is the one-class DSL population with its uplink scaled by
// factor, as an explicit class spec (transfer.Parse): %v prints the
// shortest form that parses back to the same float64.
func uplinkSpec(factor float64) string {
	d := transfer.DSLClass("dsl", 1)
	return fmt.Sprintf("dsl:1:%v/%v:%d", d.Up*factor, d.Down, d.MaxInflight)
}

// ---------------------------------------------------------------------------
// Columns and summary.

// durationColumns are a distribution's count and moments (mean, median,
// p95, max), in rounds; all zero without samples.
func durationColumns(prefix string, get func(*metrics.Collector) *metrics.Durations) []column {
	d := func(r Row) *metrics.Durations { return get(r.Result.Collector) }
	return []column{
		{prefix + "_n", "%d", func(r Row) any { return d(r).N() }},
		{prefix + "_mean", "%.6g", func(r Row) any { return d(r).Mean() }},
		{prefix + "_p50", "%.6g", func(r Row) any { return d(r).Quantile(0.5) }},
		{prefix + "_p95", "%.6g", func(r Row) any { return d(r).Quantile(0.95) }},
		{prefix + "_max", "%.6g", func(r Row) any { return d(r).Max() }},
	}
}

// transferTable is a transfer campaign's data file: the aggregate
// counters plus the time-to-backup and time-to-restore distributions.
func transferTable(file, campaign string) []table {
	return []table{{file: file, comment: "transfer campaign: " + campaign + " (durations in rounds)", columns: slices.Concat(
		[]column{variantCol, repairsCol, lossesCol, deathsCol},
		durationColumns("ttb", (*metrics.Collector).TimeToBackup),
		durationColumns("ttr", (*metrics.Collector).TimeToRestore),
		[]column{{"restores_failed", "%d", func(r Row) any { return r.Result.Collector.RestoresFailed() }}})}}
}

// transferText summarises a transfer campaign: like ablationText, but
// with the TTB/TTR distributions.
func transferText(rows []Row) (string, error) {
	text := fmt.Sprintf("%-16s %8s %7s  %-24s %-24s %6s\n",
		"variant", "repairs", "losses", "ttb mean/p95 (n)", "ttr mean/p95 (n)", "failed")
	for _, r := range rows {
		col := r.Result.Collector
		text += fmt.Sprintf("%-16s %8d %7d  %-24s %-24s %6d\n",
			r.Name, col.TotalRepairs(), col.TotalLosses(),
			formatDurations(col.TimeToBackup()), formatDurations(col.TimeToRestore()), col.RestoresFailed())
	}
	return text, nil
}

// formatDurations renders a distribution for the text summary.
func formatDurations(d *metrics.Durations) string {
	if d.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f (%d)", d.Mean(), d.Quantile(0.95), d.N())
}
