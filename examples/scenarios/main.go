// Scenarios: the workload library beyond the paper's i.i.d. churn.
//
// Three mini-campaigns, each a declarative variant list executed by the
// experiments Runner:
//
//  1. diurnal — a day/night availability cycle of increasing amplitude:
//     the population's online time concentrates into a shared day, and
//     nights become a correlated availability trough;
//  2. blackout — correlated-failure shocks (temporary blackouts,
//     a regional permanent loss, recurring ISP flaps) against the
//     shock-free baseline, with losses attributed to the shocks;
//  3. replay — one recorded churn trace driving every partner-selection
//     strategy: identical joins, departures and sessions per variant,
//     so outcome differences are the strategy's doing alone.
package main

import (
	"context"
	"fmt"
	"log"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
)

// smallConfig keeps every run in the seconds range while preserving the
// paper's protocol structure.
func smallConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 300
	cfg.Rounds = 3000 // 125 days of hourly rounds
	cfg.TotalBlocks = 32
	cfg.DataBlocks = 16
	cfg.RepairThreshold = 20
	cfg.Quota = 96
	cfg.PoolSamplePerRound = 64
	return cfg
}

func runCampaign(c experiments.Campaign) []experiments.Row {
	rows, err := experiments.Runner{}.Run(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}
	return rows
}

func main() {
	// 1. Diurnal amplitude sweep.
	fmt.Println("diurnal availability (day/night cycle amplitude):")
	fmt.Printf("  %-10s %8s %8s %8s\n", "variant", "repairs", "losses", "deaths")
	for _, row := range runCampaign(experiments.DiurnalCampaign(smallConfig(), []float64{0, 0.4, 0.8})) {
		fmt.Printf("  %-10s %8d %8d %8d\n", row.Name,
			row.Result.Collector.TotalRepairs(), row.Result.Collector.TotalLosses(), row.Result.Deaths)
	}

	// 2. Correlated-failure scenarios.
	fmt.Println("\ncorrelated failures (shocks vs baseline):")
	fmt.Printf("  %-18s %8s %8s %7s %12s\n", "variant", "repairs", "losses", "shocks", "shock-losses")
	for _, row := range runCampaign(experiments.BlackoutCampaign(smallConfig())) {
		col := row.Result.Collector
		fmt.Printf("  %-18s %8d %8d %7d %12d\n", row.Name,
			col.TotalRepairs(), col.TotalLosses(), col.TotalShocks(), col.ShockAttributedLosses())
	}

	// 3. Trace replay: record one run's churn, then drive every
	// selection strategy through the identical churn sequence.
	rec := smallConfig()
	rec.RecordTrace = true
	s, err := sim.New(rec)
	if err != nil {
		log.Fatal(err)
	}
	res := s.Run()
	trace := res.Trace
	fmt.Printf("\ntrace replay (%d churn events, %d departures, every strategy on the same churn):\n",
		len(trace.Events), res.Deaths)
	fmt.Printf("  %-22s %8s %8s %8s\n", "strategy", "repairs", "losses", "deaths")
	for _, row := range runCampaign(experiments.ReplayCampaign(smallConfig(), trace)) {
		fmt.Printf("  %-22s %8d %8d %8d\n", row.Name,
			row.Result.Collector.TotalRepairs(), row.Result.Collector.TotalLosses(), row.Result.Deaths)
	}
	fmt.Println("\nidentical deaths per strategy = identical churn; the repair and")
	fmt.Println("loss columns isolate what partner selection alone contributes.")
}
