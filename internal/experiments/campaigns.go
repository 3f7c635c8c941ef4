package experiments

import (
	"fmt"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

// This file declares the paper's evaluation campaigns as Variant lists.
// Adding a scenario means adding a constructor here and an entry, with
// its columns, to the campaign table — the Runner supplies execution,
// cancellation and streaming, and one writer prints every table.

// ThresholdCampaign is the figures 1/2 sweep: one run per repair
// threshold, each with a seed derived from the base seed and the
// threshold so points are independently reproducible.
func ThresholdCampaign(cfg sim.Config, thresholds []int) (Campaign, error) {
	if len(thresholds) == 0 {
		return Campaign{}, fmt.Errorf("experiments: empty threshold list")
	}
	c := Campaign{Name: "threshold", Base: cfg}
	for _, t := range thresholds {
		c.Variants = append(c.Variants, Variant{
			Name: fmt.Sprintf("threshold %d", t),
			Seed: cfg.Seed*1000003 + uint64(t),
			Mutate: func(c *sim.Config) {
				c.RepairThreshold = t
			},
		})
	}
	return c, nil
}

// FocalCampaign is the single figures 3/4 run: threshold 148 with the
// paper's five fixed-age observers.
func FocalCampaign(cfg sim.Config) Campaign {
	return Campaign{Name: "focal", Base: cfg, Variants: []Variant{{
		Name: "focal run",
		Mutate: func(c *sim.Config) {
			c.RepairThreshold = 148
			c.Observers = sim.PaperObservers()
		},
	}}}
}

// ablationCampaign builds a labelled variant list with the ablations'
// historical index-derived seeds.
func ablationCampaign(cfg sim.Config, name string, labels []string, mutate func(c *sim.Config, i int)) Campaign {
	c := Campaign{Name: name, Base: cfg}
	for i, label := range labels {
		c.Variants = append(c.Variants, Variant{
			Name: label,
			Seed: cfg.Seed*9176501 + uint64(i),
			Mutate: func(cc *sim.Config) {
				mutate(cc, i)
			},
		})
	}
	return c
}

// StrategyCampaign compares every partner-selection strategy (the
// ablation-strategy experiment) on identical populations. Variants
// resolve through their spec strings (sim.Config.StrategySpec), so
// estimator-backed and monitored-availability strategies get the
// engine's monitoring substrate; specs omitting a horizon inherit the
// config's AcceptHorizon. selection.Names keeps its table order (the
// historical five first), keeping the index-derived variant seeds
// reproducible.
func StrategyCampaign(cfg sim.Config) Campaign {
	names := selection.Names()
	return ablationCampaign(cfg, "strategy", names, func(c *sim.Config, i int) {
		c.StrategySpec = names[i]
	})
}

// availabilityCampaign compares availability models (A2).
func availabilityCampaign(cfg sim.Config) Campaign {
	labels := []string{"session", "bernoulli"}
	return ablationCampaign(cfg, "availability-model", labels, func(c *sim.Config, i int) {
		c.AvailSpec = labels[i]
	})
}

// repairDelayCampaign sweeps the repair-delay knob (the paper's
// future-work item).
func repairDelayCampaign(cfg sim.Config, delays []int) Campaign {
	labels := make([]string, len(delays))
	for i, d := range delays {
		labels[i] = fmt.Sprintf("delay=%dh", d)
	}
	return ablationCampaign(cfg, "repair-delay", labels, func(c *sim.Config, i int) {
		c.RepairDelay = delays[i]
	})
}

// DiurnalCampaign sweeps the day/night amplitude of the diurnal
// availability scenario: amplitude 0 is the paper's flat availability,
// higher amplitudes concentrate the population's online time into a
// shared day and make nights a correlated availability trough.
func DiurnalCampaign(cfg sim.Config, amplitudes []float64) Campaign {
	labels := make([]string, len(amplitudes))
	for i, a := range amplitudes {
		labels[i] = fmt.Sprintf("amp=%.2f", a)
	}
	return ablationCampaign(cfg, "diurnal", labels, func(c *sim.Config, i int) {
		c.AvailSpec = fmt.Sprintf("diurnal:%v", amplitudes[i])
	})
}

// BlackoutCampaign compares correlated-failure scenarios against the
// i.i.d. baseline: a population-wide temporary blackout, a regional
// blackout, a regional permanent loss (the victims' blocks are gone),
// and recurring small regional ISP outages. Shock timing scales with
// the run length so every scale preset shocks mid-run.
func BlackoutCampaign(cfg sim.Config) Campaign {
	mid := cfg.Rounds / 2
	weekly := 1.0 / float64(churn.Week)
	scenarios := []struct {
		label  string
		shocks []sim.ShockSpec
	}{
		{"baseline", nil},
		{"blackout-half", []sim.ShockSpec{
			{Name: "blackout-half", Round: mid, Fraction: 0.5, Outage: 3 * churn.Day},
		}},
		{"regional-blackout", []sim.ShockSpec{
			{Name: "regional-blackout", Round: mid, Fraction: 1, Regions: 8, Outage: 3 * churn.Day},
		}},
		{"regional-loss", []sim.ShockSpec{
			{Name: "regional-loss", Round: mid, Fraction: 1, Regions: 8, Kill: true},
		}},
		{"weekly-isp-flap", []sim.ShockSpec{
			{Name: "weekly-isp-flap", Rate: weekly, Fraction: 0.5, Regions: 16, Outage: 12 * churn.Hour},
		}},
	}
	labels := make([]string, len(scenarios))
	for i, s := range scenarios {
		labels[i] = s.label
	}
	return ablationCampaign(cfg, "blackout", labels, func(c *sim.Config, i int) {
		c.Shocks = scenarios[i].shocks
	})
}

// ReplayCampaign runs every registered selection strategy over the
// same recorded churn trace — the paired comparison that synthetic
// churn cannot offer: each variant sees the identical sequence of
// joins, departures and sessions, so outcome differences are due to
// the strategy alone.
func ReplayCampaign(cfg sim.Config, trace *churn.Trace) Campaign {
	names := selection.Names()
	return ablationCampaign(cfg, "replay", names, func(c *sim.Config, i int) {
		c.StrategySpec = names[i]
		replay(c, trace)
	})
}

// replay points c at a recorded trace. The trace defines the population,
// as sim.Config.Validate derives it, so a row's config states the
// population its run simulated; and a replayed run ends at the trace's
// last round: beyond the last recorded event there is no churn left to
// simulate.
func replay(c *sim.Config, trace *churn.Trace) {
	c.Replay = trace
	c.NumPeers = int(trace.MaxPeer()) + 1
	if last := trace.LastRound(); last >= 0 && last+1 < c.Rounds {
		c.Rounds = last + 1
	}
}

// estimatorCampaign is the observable-knowledge ranking ablation: age
// ranking against the estimator-backed rankings (Pareto, empirical) and
// monitored-availability ranking, each under i.i.d. profile churn, a
// diurnal day/night cycle, and — when a trace is supplied — replayed
// churn (the paired comparison). The paper's claim is that ranking by
// age is equivalent to ranking by any heavy-tailed lifetime estimate;
// this campaign is the experiment that tests the claim where its
// i.i.d. heavy-tail assumptions hold and where they do not.
func estimatorCampaign(cfg sim.Config, trace *churn.Trace) Campaign {
	strategies := []string{"age", "estimator:pareto", "estimator:empirical", "monitored-availability"}
	var labels []string
	var mutates []func(c *sim.Config)
	addBlock := func(block string, apply func(c *sim.Config)) {
		for _, spec := range strategies {
			labels = append(labels, block+"/"+spec)
			mutates = append(mutates, func(c *sim.Config) {
				c.StrategySpec = spec
				apply(c)
			})
		}
	}
	addBlock("iid", func(c *sim.Config) {})
	addBlock("diurnal", func(c *sim.Config) {
		c.AvailSpec = "diurnal:0.6"
	})
	if trace != nil {
		addBlock("replay", func(c *sim.Config) { replay(c, trace) })
	}
	return ablationCampaign(cfg, "estimator", labels, func(c *sim.Config, i int) {
		mutates[i](c)
	})
}

// horizonCampaign sweeps the acceptance horizon L (A3).
func horizonCampaign(cfg sim.Config, horizons []int64) Campaign {
	labels := make([]string, len(horizons))
	for i, h := range horizons {
		labels[i] = fmt.Sprintf("L=%dd", h/churn.Day)
	}
	return ablationCampaign(cfg, "horizon", labels, func(c *sim.Config, i int) {
		c.AcceptHorizon = horizons[i]
		c.StrategySpec = fmt.Sprintf("age:L=%d", horizons[i])
	})
}

// ---------------------------------------------------------------------------
// Shared campaign execution helpers.

// doneMessage formats the historical "<campaign> <variant> done" row
// message.
func doneMessage(campaign string) func(Row) string {
	return func(row Row) string {
		return fmt.Sprintf("%s %q done: %d repairs, %d losses",
			campaign, row.Name, row.Result.Collector.TotalRepairs(), row.Result.Collector.TotalLosses())
	}
}

// thresholdDoneMessage formats the historical threshold-sweep row
// message.
func thresholdDoneMessage(row Row) string {
	return fmt.Sprintf("threshold %d done: %d repairs, %d losses",
		row.Config.RepairThreshold, row.Result.Collector.TotalRepairs(), row.Result.Collector.TotalLosses())
}
