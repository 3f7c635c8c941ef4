// strategy_comparison: the ablation the paper motivates but does not
// plot - how much does age-based selection actually buy? Compares the
// paper's rule against random placement, an unimplementable oracle that
// knows true remaining lifetimes, an availability oracle, an
// adversarial youngest-first rule, and the observable-knowledge
// rankings (estimator-backed and monitored-availability specs), all on
// identical populations.
//
// The runs are one experiments.Campaign — one variant per registered
// strategy spec — executed concurrently by the Runner.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 600
	cfg.Rounds = 8000

	campaign := experiments.StrategyCampaign(cfg)
	fmt.Fprintf(os.Stderr, "running %d strategies on identical populations...\n", len(campaign.Variants))
	var rows []experiments.Row
	for ev := range (experiments.Runner{}).Stream(context.Background(), campaign) {
		switch ev.Kind {
		case experiments.EventRow:
			fmt.Fprintf(os.Stderr, "  strategy %q done: %d repairs, %d losses\n",
				ev.Name, ev.Row.Result.Collector.TotalRepairs(), ev.Row.Result.Collector.TotalLosses())
			rows = append(rows, *ev.Row)
		case experiments.EventDone:
			if ev.Err != nil {
				log.Fatal(ev.Err)
			}
		}
	}
	// Rows stream in completion order; present them in variant order.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })

	fmt.Printf("\n%-22s %9s %8s %10s %12s %12s\n",
		"strategy", "repairs", "losses", "uploads", "newcomer/1k", "old/1k")
	for _, row := range rows {
		col := row.Result.Collector
		var uploads int64
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			uploads += col.Counts(c).BlocksUploaded
		}
		fmt.Printf("%-22s %9d %8d %10d %12.3f %12.3f\n",
			row.Name, col.TotalRepairs(), col.TotalLosses(), uploads,
			col.RepairRatePer1000(metrics.Newcomer), col.RepairRatePer1000(metrics.Old))
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - the age rule does not minimise TOTAL cost: it concentrates")
	fmt.Println("    cost on newcomers (high newcomer rate) while veterans ride")
	fmt.Println("    almost free - the paper's tit-for-tat reward for loyalty;")
	fmt.Println("  - random spreads cost evenly: newcomers are cheap but nobody")
	fmt.Println("    earns cheap maintenance by staying;")
	fmt.Println("  - the oracles bound what any lifetime estimate could achieve.")
}
