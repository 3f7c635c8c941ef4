// threshold_sweep: a miniature of the paper's figures 1 and 2 - how
// the repair threshold k' trades repair traffic against archive loss,
// stratified by peer age category.
//
// The sweep is expressed as a declarative campaign executed by
// experiments.Runner: points stream in as they finish, and Ctrl-C
// cancels the remaining runs cleanly.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 600
	cfg.Rounds = 8000
	thresholds := []int{132, 140, 148, 156, 164, 172, 180}

	campaign, err := experiments.ThresholdCampaign(cfg, thresholds)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(os.Stderr, "sweeping %d thresholds over %d peers x %d rounds...\n",
		len(thresholds), cfg.NumPeers, cfg.Rounds)
	var rows []experiments.Row
	for ev := range (experiments.Runner{}).Stream(ctx, campaign) {
		switch ev.Kind {
		case experiments.EventRow:
			fmt.Fprintf(os.Stderr, "  %s done: %d repairs, %d losses\n",
				ev.Name, ev.Row.Result.Collector.TotalRepairs(), ev.Row.Result.Collector.TotalLosses())
			rows = append(rows, *ev.Row)
		case experiments.EventDone:
			if ev.Err != nil {
				log.Fatal(ev.Err)
			}
		}
	}
	// Rows stream in completion order; present them by threshold.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Config.RepairThreshold < rows[j].Config.RepairThreshold })

	fmt.Println("\nfigure 1 (repairs per 1000 peer-rounds):")
	fmt.Printf("%9s %10s %10s %10s %10s\n", "threshold", "newcomer", "young", "old", "elder")
	for _, row := range rows {
		col := row.Result.Collector
		fmt.Printf("%9d %10.3f %10.3f %10.3f %10.3f\n", row.Config.RepairThreshold,
			col.RepairRatePer1000(metrics.Newcomer), col.RepairRatePer1000(metrics.Young),
			col.RepairRatePer1000(metrics.Old), col.RepairRatePer1000(metrics.Elder))
	}

	fmt.Println("\nfigure 2 (lost archives per 1000 peer-rounds):")
	fmt.Printf("%9s %10s %10s %10s %10s\n", "threshold", "newcomer", "young", "old", "elder")
	for _, row := range rows {
		col := row.Result.Collector
		fmt.Printf("%9d %10.4f %10.4f %10.4f %10.4f\n", row.Config.RepairThreshold,
			col.LossRatePer1000(metrics.Newcomer), col.LossRatePer1000(metrics.Young),
			col.LossRatePer1000(metrics.Old), col.LossRatePer1000(metrics.Elder))
	}

	fmt.Println("\nexpect: repairs rise with the threshold (newcomers worst);")
	fmt.Println("losses concentrate on newcomers and vanish for older peers.")
}
