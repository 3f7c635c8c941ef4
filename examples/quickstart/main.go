// Quickstart: run a small lifetime-aware backup simulation and print
// the headline numbers - repair and loss rates per age category, the
// quantities the paper's evaluation revolves around.
//
// It also attaches a custom sim.Probe: the engine streams every
// protocol event (churn, repairs, losses) to pluggable observers, so
// bespoke measurement needs no engine changes.
package main

import (
	"fmt"
	"log"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
)

// uploadHistogram is a custom probe: it buckets repair events by blocks
// uploaded, a measurement the built-in collector does not keep.
type uploadHistogram struct {
	sim.BaseProbe
	sessions int64
	buckets  [5]int64 // <16, <32, <64, <128, >=128 blocks
}

func (h *uploadHistogram) OnRepair(e sim.RepairEvent) {
	switch {
	case e.Uploaded < 16:
		h.buckets[0]++
	case e.Uploaded < 32:
		h.buckets[1]++
	case e.Uploaded < 64:
		h.buckets[2]++
	case e.Uploaded < 128:
		h.buckets[3]++
	default:
		h.buckets[4]++
	}
}

func (h *uploadHistogram) OnChurn(e sim.ChurnEvent) { h.sessions++ }

func main() {
	cfg := sim.DefaultConfig()
	// Scale down from the paper's 25,000 peers x 5.7 years to seconds
	// of wall clock; all protocol parameters stay at paper values.
	cfg.NumPeers = 600
	cfg.Rounds = 6000 // 250 days of hourly rounds
	cfg.Observers = sim.PaperObservers()
	hist := &uploadHistogram{}
	cfg.Probes = []sim.Probe{hist}

	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := s.Run()

	fmt.Printf("simulated %d peers for %d rounds (%.0f days)\n",
		cfg.NumPeers, cfg.Rounds, float64(cfg.Rounds)/24)
	fmt.Printf("departures (immediately replaced): %d\n", res.Deaths)
	fmt.Printf("repairs: %d   lost archives: %d (permanent: %d)\n\n",
		res.Collector.TotalRepairs(), res.Collector.TotalLosses(), res.Collector.TotalHardLosses())

	fmt.Println("per age category (the paper's stratification):")
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		fmt.Printf("  %-9s repairs/1000 peer-rounds: %6.3f   losses/1000: %6.4f\n",
			c, res.Collector.RepairRatePer1000(c), res.Collector.LossRatePer1000(c))
	}

	fmt.Println("\nfixed-age observers (figure 3):")
	for i, name := range res.Observers.Names() {
		fmt.Printf("  %-9s cumulative repairs: %d\n", name, res.Observers.Count(i))
	}

	fmt.Println("\ncustom probe (upload sizes per repair, in blocks):")
	labels := []string{"<16", "16-31", "32-63", "64-127", ">=128"}
	for i, n := range hist.buckets {
		fmt.Printf("  %-7s %d\n", labels[i], n)
	}
	fmt.Printf("churn events observed: %d\n", hist.sessions)

	fmt.Println("\nolder peers repair less: age predicts lifetime, and the")
	fmt.Println("acceptance function lets elders pick elder partners.")
}
