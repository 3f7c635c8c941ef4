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
// (ThresholdCampaign, FocalCampaign, StrategyCampaign, ...); a run's
// outcome is its Row, which callers read directly.
//
// Every built-in campaign is declared once, in the campaign table
// (table.go): its constructor, and the data files it writes, each a
// list of columns a row is printed through. RunCtx (the string-id
// registry cmd/p2psim drives), CampaignSpec.Build and Names all read
// it: there is one way to run a campaign by id, one writer for every
// TSV, and Runner.Run is the way to run a campaign you built.
package experiments

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
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

// paperThresholds returns the sweep of figure 1/2: 132 to 180 in steps
// of 4.
func paperThresholds() []int {
	var ts []int
	for t := 132; t <= 180; t += 4 {
		ts = append(ts, t)
	}
	return ts
}

// ---------------------------------------------------------------------------
// Columns and summaries shared by the figure and ablation tables. Each
// reads a Row directly: there is no result type between a run and its
// TSV line.

// repairRate and lossRate are a row's rates per 1000 peer-rounds in one
// age category.
func repairRate(r Row, c metrics.Category) float64 {
	return r.Result.Collector.RepairRatePer1000(c)
}

func lossRate(r Row, c metrics.Category) float64 { return r.Result.Collector.LossRatePer1000(c) }

// uploadedBlocks is a row's maintenance traffic: blocks uploaded, all
// categories.
func uploadedBlocks(r Row) int64 {
	var n int64
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		n += r.Result.Collector.Counts(c).BlocksUploaded
	}
	return n
}

// perCategory expands rate into one column per age category, headed
// prefix plus the category's name.
func perCategory(prefix string, rate func(Row, metrics.Category) float64) []column {
	var cols []column
	for c, name := range metrics.CategoryNames() {
		cols = append(cols, column{prefix + name, "%.6g", func(r Row) any { return rate(r, metrics.Category(c)) }})
	}
	return cols
}

// The columns most tables open with.
var (
	variantCol = column{"variant", "%s", func(r Row) any { return r.Name }}
	repairsCol = column{"repairs", "%d", func(r Row) any { return r.Result.Collector.TotalRepairs() }}
	lossesCol  = column{"losses", "%d", func(r Row) any { return r.Result.Collector.TotalLosses() }}
	deathsCol  = column{"deaths", "%d", func(r Row) any { return r.Result.Deaths }}
)

// thresholdTable is figure 1 or 2: one line per repair threshold, the
// rate per age category.
func thresholdTable(file, what string, rate func(Row, metrics.Category) float64) table {
	threshold := column{"threshold", "%d", func(r Row) any { return r.Config.RepairThreshold }}
	return table{file: file, comment: what + " by repair threshold", columns: append([]column{threshold}, perCategory("", rate)...)}
}

// byThreshold orders the rows of a threshold sweep.
func byThreshold(a, b Row) int {
	return cmp.Compare(a.Config.RepairThreshold, b.Config.RepairThreshold)
}

// thresholdText summarises figures 1 and 2.
func thresholdText(rows []Row) (string, error) {
	text := "threshold\trepairs/1k(newcomer,young,old,elder)\tlosses/1k(newcomer,young,old,elder)\n"
	for _, r := range rows {
		text += fmt.Sprintf("%d\t%.3g %.3g %.3g %.3g\t%.3g %.3g %.3g %.3g\n",
			r.Config.RepairThreshold,
			repairRate(r, 0), repairRate(r, 1), repairRate(r, 2), repairRate(r, 3),
			lossRate(r, 0), lossRate(r, 1), lossRate(r, 2), lossRate(r, 3))
	}
	return text, nil
}

// writeObserverSeries emits figure 3 from the focal run: cumulative
// repairs per observer over days (a step series, one line per repair).
func writeObserverSeries(b *bytes.Buffer, rows []Row) error {
	obs := rows[0].Result.Observers
	b.WriteString("#observer\tday\tcumulative_repairs\n")
	for i, name := range obs.Names() {
		s := obs.Series(i)
		for j := 0; j < s.Len(); j++ {
			x, y := s.At(j)
			fmt.Fprintf(b, "%s\t%.4f\t%.0f\n", name, x, y)
		}
	}
	return nil
}

// writeLossSeries emits figure 4 from the focal run: cumulative lost
// archives per peer, a line per sampled day, a column per category.
func writeLossSeries(b *bytes.Buffer, rows []Row) error {
	col := rows[0].Result.Collector
	b.WriteString("#day\t" + strings.Join(metrics.CategoryNames(), "\t") + "\n")
	for i := 0; i < col.LossSeries(0).Len(); i++ {
		day, _ := col.LossSeries(0).At(i)
		fmt.Fprintf(b, "%.2f", day)
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			_, y := col.LossSeries(c).At(i)
			fmt.Fprintf(b, "\t%.6g", y)
		}
		b.WriteByte('\n')
	}
	return nil
}

// focalText summarises figures 3 and 4.
func focalText(rows []Row) (string, error) {
	if len(rows) == 0 {
		return "", fmt.Errorf("experiments: focal run failed; no rows to report")
	}
	res := rows[0].Result
	text := "observer\tcumulative repairs\n"
	for i, n := range res.Observers.Names() {
		text += fmt.Sprintf("%s\t%d\n", n, res.Observers.Count(i))
	}
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		s := res.Collector.LossSeries(c)
		_, last := s.Last()
		text += fmt.Sprintf("losses/peer[%s]\t%.3f\n", s.Name(), last)
	}
	return text, nil
}

// ablationTable is an ablation's data file: a line per variant with its
// counters, correlated-failure attribution (zero for shock-free
// variants) and per-category rates.
func ablationTable(file, campaign string) []table {
	return []table{{file: file, comment: "ablation: " + campaign, columns: slices.Concat(
		[]column{variantCol, repairsCol, lossesCol, deathsCol,
			{"uploaded_blocks", "%d", func(r Row) any { return uploadedBlocks(r) }},
			{"shocks", "%d", func(r Row) any { return r.Result.Collector.TotalShocks() }},
			{"shock_losses", "%d", func(r Row) any { return r.Result.Collector.ShockAttributedLosses() }},
		},
		perCategory("repair_rate_", repairRate),
		perCategory("loss_rate_", lossRate))}}
}

// ablationText summarises a labelled comparison of variants.
func ablationText(rows []Row) (string, error) {
	text := fmt.Sprintf("%-24s %10s %8s %8s\n", "variant", "repairs", "losses", "deaths")
	for _, r := range rows {
		col := r.Result.Collector
		text += fmt.Sprintf("%-24s %10d %8d %8d\n", r.Name, col.TotalRepairs(), col.TotalLosses(), r.Result.Deaths)
	}
	return text, nil
}
