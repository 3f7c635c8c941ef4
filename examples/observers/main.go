// observers: the paper's figure 3 experiment in miniature. Five
// fixed-age observers (3 months down to 1 hour) maintain an archive in
// the same churning population; their cumulative repair counts separate
// by orders of magnitude because age gates who will partner with them.
//
// The run executes as a one-variant campaign on experiments.Runner, whose
// round progress heartbeats stream from the event channel.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
)

func main() {
	cfg, err := experiments.BaseConfig(experiments.ScaleSmoke)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Rounds = 12000 // 500 days

	fmt.Fprintln(os.Stderr, "running focal simulation (threshold 148, five observers)...")
	runner := experiments.Runner{Parallelism: 1}
	var row *experiments.Row
	for ev := range runner.Stream(context.Background(), experiments.FocalCampaign(cfg)) {
		switch ev.Kind {
		case experiments.EventProgress:
			fmt.Fprintln(os.Stderr, "  "+ev.Message)
		case experiments.EventRow:
			row = ev.Row
		case experiments.EventDone:
			if ev.Err != nil {
				log.Fatal(ev.Err)
			}
		}
	}
	obs := row.Result.Observers

	fmt.Printf("\ncumulative repairs after %.0f days (paper's figure 3 ordering):\n",
		float64(cfg.Rounds)/24)
	for i, name := range obs.Names() {
		age := sim.PaperObservers()[i].Age
		fmt.Printf("  %-9s (age %6d h): %5d repairs\n", name, age, obs.Count(i))
	}
	fmt.Println("\nthe baby (1 hour) can only recruit young - mostly erratic -")
	fmt.Println("partners, so it repairs constantly; the elder (3 months) is")
	fmt.Println("accepted by everyone and keeps stable partners for months.")

	// Show the first few points of the baby's cumulative curve.
	baby := obs.Series(obs.Len() - 1)
	fmt.Println("\nbaby observer cumulative-repair curve (day, count):")
	for i := 0; i < baby.Len() && i < 10; i++ {
		x, y := baby.At(i)
		fmt.Printf("  day %7.2f: %3.0f\n", x, y)
	}
}
