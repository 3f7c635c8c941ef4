package experiments_test

import (
	"context"
	"fmt"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
)

// Example runs a small declarative campaign through the Runner: a
// Campaign is data (one base config, named variant mutations with
// deterministic seeds), the Runner supplies execution — a bounded
// worker pool, cancellation, and a typed event stream. Results are
// identical at any parallelism.
func Example() {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 100
	cfg.Rounds = 200
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48
	cfg.Seed = 3

	camp := experiments.DiurnalCampaign(cfg, []float64{0, 0.8})
	rows, err := experiments.Runner{Parallelism: 2}.Run(context.Background(), camp)
	if err != nil {
		panic(err)
	}
	// A strong day/night cycle forces extra repairs: nights are a
	// correlated availability trough.
	for _, row := range rows {
		fmt.Printf("%s: repairs > baseline: %v\n", row.Name,
			row.Result.Collector.TotalRepairs() > rows[0].Result.Collector.TotalRepairs())
	}
	// Output:
	// amp=0.00: repairs > baseline: false
	// amp=0.80: repairs > baseline: true
}
