// Package experiments defines the runnable experiments that regenerate
// every table and figure of the paper's evaluation, plus the ablations
// and scenario campaigns README lists.
//
// The execution surface is the Campaign/Runner pair: a Campaign is a
// declarative batch — one base sim.Config and a list of Variants, each
// a named config mutation with its own deterministic seed — and a
// Runner executes campaigns over a bounded worker pool with
// context.Context cancellation, delivering a typed Event stream
// (progress heartbeats, completed rows, a terminal done event). The
// paper's evaluation is expressed as campaign constructors
// (ThresholdCampaign, FocalCampaign, StrategyCampaign, ...) plus row
// converters (ThresholdSweepFromRows, ...) that produce plot-ready
// results with TSV emitters; new scenario sweeps should follow that
// pattern rather than hand-rolling drivers.
//
// Every built-in campaign is declared once, in the campaign table
// (table.go). RunCtx (the string-id registry cmd/p2psim drives),
// CampaignSpec.Build (what a supervised worker rebuilds) and Names all
// read it: there is one way to run a campaign by id, and Runner.Run is
// the way to run one you built.
package experiments

import (
	"fmt"
	"io"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/stats"
)

// Scale selects a simulation size preset.
type Scale string

// Scale presets. All keep the paper's intensive parameters (n, k,
// quota, thresholds, profile mix) and shrink the population and/or
// duration; README lists each preset's population.
const (
	// ScaleSmoke: 600 peers, 20,000 rounds (~2.3 years): minutes for a
	// full sweep on a laptop; elders exist.
	ScaleSmoke Scale = "smoke"
	// ScaleDefault: 2,500 peers, full 50,000 rounds: the shape of every
	// figure at a tenth of the population.
	ScaleDefault Scale = "default"
	// ScalePaper: the paper's 25,000 peers x 50,000 rounds.
	ScalePaper Scale = "paper"
)

// BaseConfig returns the paper configuration adjusted to the scale.
func BaseConfig(scale Scale) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	switch scale {
	case ScaleSmoke:
		cfg.NumPeers = 600
		cfg.Rounds = 20000
	case ScaleDefault, "":
		cfg.NumPeers = 2500
		cfg.Rounds = 50000
	case ScalePaper:
		// as-is
	default:
		return cfg, fmt.Errorf("experiments: unknown scale %q", scale)
	}
	return cfg, nil
}

// Scales lists the preset names.
func Scales() []string { return []string{string(ScaleSmoke), string(ScaleDefault), string(ScalePaper)} }

// PaperThresholds returns the sweep of figure 1/2: 132 to 180 in steps
// of 4.
func PaperThresholds() []int {
	var ts []int
	for t := 132; t <= 180; t += 4 {
		ts = append(ts, t)
	}
	return ts
}

// ---------------------------------------------------------------------------
// Figures 1 and 2: threshold sweep

// ThresholdPoint is one sweep point: per-category repair and loss rates
// at a repair threshold.
type ThresholdPoint struct {
	Threshold  int
	RepairRate [metrics.NumCategories]float64 // per 1000 peer-rounds
	LossRate   [metrics.NumCategories]float64 // per 1000 peer-rounds
	Repairs    int64
	Losses     int64
	Deaths     int64
}

// ThresholdSweep holds figure 1 (repair rates) and figure 2 (loss
// rates); the paper derives both from the same runs.
type ThresholdSweep struct {
	Points []ThresholdPoint
}

// WriteRepairTSV emits figure 1: threshold vs repair rate per category.
func (s *ThresholdSweep) WriteRepairTSV(w io.Writer) error {
	return s.writeTSV(w, "repairs_per_1000_peer_rounds", func(p ThresholdPoint, c metrics.Category) float64 {
		return p.RepairRate[c]
	})
}

// WriteLossTSV emits figure 2: threshold vs loss rate per category.
func (s *ThresholdSweep) WriteLossTSV(w io.Writer) error {
	return s.writeTSV(w, "losses_per_1000_peer_rounds", func(p ThresholdPoint, c metrics.Category) float64 {
		return p.LossRate[c]
	})
}

func (s *ThresholdSweep) writeTSV(w io.Writer, what string, get func(ThresholdPoint, metrics.Category) float64) error {
	if _, err := fmt.Fprintf(w, "# %s by repair threshold\n#threshold", what); err != nil {
		return err
	}
	for _, n := range metrics.CategoryNames() {
		if _, err := fmt.Fprintf(w, "\t%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%d", p.Threshold); err != nil {
			return err
		}
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			if _, err := fmt.Fprintf(w, "\t%.6g", get(p, c)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figures 3 and 4: focal run at threshold 148

// FocalResult carries the observer series (figure 3) and the
// per-category cumulative loss series (figure 4) from the paper's focal
// configuration (threshold 148, five observers).
type FocalResult struct {
	ObserverNames  []string
	ObserverCounts []int64
	ObserverSeries []*stats.Series
	LossSeries     [metrics.NumCategories]*stats.Series
	Repairs        int64
	Losses         int64
	Deaths         int64
}

// WriteObserverTSV emits figure 3: cumulative repairs per observer over
// days (step series; one row per repair event).
func (f *FocalResult) WriteObserverTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# cumulative repairs per observer\n#observer\tday\tcumulative_repairs"); err != nil {
		return err
	}
	for i, name := range f.ObserverNames {
		s := f.ObserverSeries[i]
		for j := 0; j < s.Len(); j++ {
			x, y := s.At(j)
			if _, err := fmt.Fprintf(w, "%s\t%.4f\t%.0f\n", name, x, y); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteLossSeriesTSV emits figure 4: cumulative lost archives per peer
// by category over days.
func (f *FocalResult) WriteLossSeriesTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# cumulative lost archives per peer\n#day"); err != nil {
		return err
	}
	for _, n := range metrics.CategoryNames() {
		if _, err := fmt.Fprintf(w, "\t%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	n := f.LossSeries[0].Len()
	for i := 0; i < n; i++ {
		day, _ := f.LossSeries[0].At(i)
		if _, err := fmt.Fprintf(w, "%.2f", day); err != nil {
			return err
		}
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			_, y := f.LossSeries[c].At(i)
			if _, err := fmt.Fprintf(w, "\t%.6g", y); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ablations

// AblationPoint is one variant's aggregate outcome.
type AblationPoint struct {
	Label      string
	RepairRate [metrics.NumCategories]float64
	LossRate   [metrics.NumCategories]float64
	Repairs    int64
	Losses     int64
	Deaths     int64
	Uploaded   int64 // total blocks uploaded (maintenance traffic)
	// Correlated-failure attribution (zero for shock-free variants).
	Shocks      int64 // shocks fired during the run
	ShockLosses int64 // losses within metrics.ShockAttributionWindow of a shock
}

// AblationResult is a labelled comparison of variants.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// WriteTSV emits the ablation comparison.
func (a *AblationResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# ablation: %s\n#variant\trepairs\tlosses\tdeaths\tuploaded_blocks\tshocks\tshock_losses", a.Name); err != nil {
		return err
	}
	for _, n := range metrics.CategoryNames() {
		if _, err := fmt.Fprintf(w, "\trepair_rate_%s", n); err != nil {
			return err
		}
	}
	for _, n := range metrics.CategoryNames() {
		if _, err := fmt.Fprintf(w, "\tloss_rate_%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range a.Points {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d",
			p.Label, p.Repairs, p.Losses, p.Deaths, p.Uploaded, p.Shocks, p.ShockLosses); err != nil {
			return err
		}
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			if _, err := fmt.Fprintf(w, "\t%.6g", p.RepairRate[c]); err != nil {
				return err
			}
		}
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			if _, err := fmt.Fprintf(w, "\t%.6g", p.LossRate[c]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// reportThreshold reports figures 1 and 2 from one threshold sweep.
func reportThreshold(_ string, rows []Row) (report, error) {
	sweep := ThresholdSweepFromRows(rows)
	text := "threshold\trepairs/1k(newcomer,young,old,elder)\tlosses/1k(newcomer,young,old,elder)\n"
	for _, p := range sweep.Points {
		text += fmt.Sprintf("%d\t%.3g %.3g %.3g %.3g\t%.3g %.3g %.3g %.3g\n",
			p.Threshold,
			p.RepairRate[0], p.RepairRate[1], p.RepairRate[2], p.RepairRate[3],
			p.LossRate[0], p.LossRate[1], p.LossRate[2], p.LossRate[3])
	}
	return report{name: "fig1+fig2", emit: []func(io.Writer) error{sweep.WriteRepairTSV, sweep.WriteLossTSV}, text: text}, nil
}

// reportFocal reports figures 3 and 4 from the focal run.
func reportFocal(_ string, rows []Row) (report, error) {
	if len(rows) == 0 {
		return report{}, fmt.Errorf("experiments: focal run failed; no rows to report")
	}
	focal := FocalFromRow(rows[0])
	text := "observer\tcumulative repairs\n"
	for i, n := range focal.ObserverNames {
		text += fmt.Sprintf("%s\t%d\n", n, focal.ObserverCounts[i])
	}
	for c := 0; c < len(focal.LossSeries); c++ {
		_, last := focal.LossSeries[c].Last()
		text += fmt.Sprintf("losses/peer[%s]\t%.3f\n", focal.LossSeries[c].Name(), last)
	}
	return report{name: "fig3+fig4", emit: []func(io.Writer) error{focal.WriteObserverTSV, focal.WriteLossSeriesTSV}, text: text}, nil
}

// reportAblation reports a labelled comparison of variants.
func reportAblation(campaign string, rows []Row) (report, error) {
	res := AblationFromRows(campaign, rows)
	text := fmt.Sprintf("%-24s %10s %8s %8s\n", "variant", "repairs", "losses", "deaths")
	for _, p := range res.Points {
		text += fmt.Sprintf("%-24s %10d %8d %8d\n", p.Label, p.Repairs, p.Losses, p.Deaths)
	}
	return report{name: res.Name, emit: []func(io.Writer) error{res.WriteTSV}, text: text}, nil
}
