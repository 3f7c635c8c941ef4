package experiments

import (
	"fmt"
	"io"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// This file declares the transfer-scheduling campaigns: bandwidth-class
// comparisons, the restore flash crowd, and the uplink sweep. They
// follow the ablation pattern (labelled variants with index-derived
// seeds) but convert rows through TransferFromRows, which carries the
// time-to-backup and time-to-restore distributions the aggregate
// repair/loss counters cannot express.

// mustBandwidth parses a bandwidth class spec. The campaign
// constructors only pass vetted preset names, so a parse failure is a
// programming error.
func mustBandwidth(spec string) *transfer.Params {
	p, err := transfer.Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// setBandwidth points a variant config at a bandwidth class spec,
// overriding whatever the base config (or Options.Bandwidth) carried:
// a campaign that sweeps the bandwidth mix must own the knob.
func setBandwidth(c *sim.Config, spec string) {
	c.Bandwidth = mustBandwidth(spec)
}

// TransferBaselineCampaign compares the bandwidth presets on identical
// populations: the degenerate instant mode (the engine's historical
// immediate placement), a uniform DSL population, the 50/50 DSL/FTTH
// mix, and the slow-uplink skewed population. Repair and loss counts
// show what metered uplinks cost; the time-to-backup distribution shows
// where the cost comes from.
func TransferBaselineCampaign(cfg sim.Config) Campaign {
	specs := transfer.Presets()
	return ablationCampaign(cfg, "transfer-baseline", specs, func(c *sim.Config, i int) {
		setBandwidth(c, specs[i])
	})
}

// FlashCrowdCampaign is the restore flash crowd: a mid-run blackout
// knocks out part of the population, and shortly after, half the peers
// demand their archives back at once. Under instant links the crowd is
// absorbed in a round; under metered links the demanders' downlinks and
// the hosts' uplinks shape a time-to-restore distribution with a heavy
// tail. Variants compare instant, uniform-DSL and skewed populations on
// an identical shock-and-demand schedule.
func FlashCrowdCampaign(cfg sim.Config) Campaign {
	mid := cfg.Rounds / 2
	specs := []string{"instant", "dsl", "skewed"}
	return ablationCampaign(cfg, "flashcrowd", specs, func(c *sim.Config, i int) {
		setBandwidth(c, specs[i])
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

// UplinkSweepCampaign sweeps the population's uplink rate across a
// uniform DSL-class population, with the legacy budget-mode engine
// (instant placement, per-round upload budget) as the baseline: the
// paper's section 2.2.4 collapses bandwidth to that budget, and this
// sweep measures what the collapse hides as uplinks slow down.
func UplinkSweepCampaign(cfg sim.Config) Campaign {
	labels := []string{"budget"}
	for _, f := range uplinkFactors {
		labels = append(labels, fmt.Sprintf("up=%.3gx", f))
	}
	return ablationCampaign(cfg, "uplink-sweep", labels, func(c *sim.Config, i int) {
		if i == 0 {
			setBandwidth(c, "instant")
			return
		}
		d := transfer.DSLClass("dsl", 1)
		d.Up *= uplinkFactors[i-1]
		c.Bandwidth = &transfer.Params{Classes: []transfer.Class{d}}
	})
}

// ---------------------------------------------------------------------------
// Row conversion.

// DurationSummary condenses a metrics.Durations distribution into the
// plot-ready moments: count, mean, median, p95, max (all in rounds).
// The zero value means no samples.
type DurationSummary struct {
	Count int64
	Mean  float64
	P50   float64
	P95   float64
	Max   float64
}

func summariseDurations(d *metrics.Durations) DurationSummary {
	if d.N() == 0 {
		return DurationSummary{}
	}
	return DurationSummary{
		Count: d.N(),
		Mean:  d.Mean(),
		P50:   d.Quantile(0.5),
		P95:   d.Quantile(0.95),
		Max:   d.Max(),
	}
}

// TransferPoint is one transfer-campaign variant's outcome: the
// aggregate counters plus the time-to-backup and time-to-restore
// distributions.
type TransferPoint struct {
	Label          string
	Repairs        int64
	Losses         int64
	Deaths         int64
	TTB            DurationSummary
	TTR            DurationSummary
	RestoresFailed int64
}

// TransferResult is a labelled comparison of transfer variants.
type TransferResult struct {
	Name   string
	Points []TransferPoint
}

// TransferFromRows converts a transfer campaign's rows, in variant
// order.
func TransferFromRows(name string, rows []Row) *TransferResult {
	points := make([]TransferPoint, 0, len(rows))
	for _, row := range rows {
		col := row.Result.Collector
		points = append(points, TransferPoint{
			Label:          row.Name,
			Repairs:        col.TotalRepairs(),
			Losses:         col.TotalLosses(),
			Deaths:         row.Result.Deaths,
			TTB:            summariseDurations(col.TimeToBackup()),
			TTR:            summariseDurations(col.TimeToRestore()),
			RestoresFailed: col.RestoresFailed(),
		})
	}
	return &TransferResult{Name: name, Points: points}
}

// WriteTSV emits the transfer comparison.
func (r *TransferResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# transfer campaign: %s (durations in rounds)\n"+
		"#variant\trepairs\tlosses\tdeaths\t"+
		"ttb_n\tttb_mean\tttb_p50\tttb_p95\tttb_max\t"+
		"ttr_n\tttr_mean\tttr_p50\tttr_p95\tttr_max\trestores_failed\n", r.Name); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n",
			p.Label, p.Repairs, p.Losses, p.Deaths,
			p.TTB.Count, p.TTB.Mean, p.TTB.P50, p.TTB.P95, p.TTB.Max,
			p.TTR.Count, p.TTR.Mean, p.TTR.P50, p.TTR.P95, p.TTR.Max,
			p.RestoresFailed); err != nil {
			return err
		}
	}
	return nil
}

// reportTransfer reports a transfer campaign: like reportAblation, but
// the summary carries TTB/TTR columns.
func reportTransfer(campaign string, rows []Row) (report, error) {
	res := TransferFromRows(campaign, rows)
	text := fmt.Sprintf("%-16s %8s %7s  %-24s %-24s %6s\n",
		"variant", "repairs", "losses", "ttb mean/p95 (n)", "ttr mean/p95 (n)", "failed")
	for _, p := range res.Points {
		text += fmt.Sprintf("%-16s %8d %7d  %-24s %-24s %6d\n",
			p.Label, p.Repairs, p.Losses,
			formatDurations(p.TTB), formatDurations(p.TTR), p.RestoresFailed)
	}
	return report{name: res.Name, emit: []func(io.Writer) error{res.WriteTSV}, text: text}, nil
}

// formatDurations renders a DurationSummary for the text summary.
func formatDurations(d DurationSummary) string {
	if d.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f (%d)", d.Mean, d.P95, d.Count)
}
