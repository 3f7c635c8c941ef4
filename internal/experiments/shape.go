package experiments

import (
	"context"
	"fmt"
	"slices"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/stats"
)

// Estimate is a quantity measured over independent seeds: the sample
// mean and the half-width of its 95 % confidence interval.
type Estimate struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// PaperShape holds the quantities the paper's four figures plot, each
// as an Estimate over seeds. It is what a trajectory-changing engine
// change is judged by: two engines are equivalent when their shapes
// agree, not when their digests do.
type PaperShape struct {
	Peers      int      `json:"peers"`
	Rounds     int64    `json:"rounds"`
	Seeds      []uint64 `json:"seeds"`
	Thresholds []int    `json:"thresholds"`
	// RepairRate is figure 1: per threshold, repairs per 1000
	// peer-rounds by age category.
	RepairRate [][metrics.NumCategories]Estimate `json:"repair_rate"`
	// LossRate is figure 2: per threshold, lost archives (decode
	// outages) per 1000 peer-rounds over the whole population.
	LossRate []Estimate `json:"loss_rate"`
	// Focal is the threshold figures 3 and 4 are read at.
	Focal int `json:"focal"`
	// ObserverRepairs is figure 3: cumulative repairs per observer at
	// the focal threshold, in the order of ObserverNames.
	ObserverNames   []string   `json:"observer_names"`
	ObserverRepairs []Estimate `json:"observer_repairs"`
	// CumulativeLosses is figure 4: lost archives per peer by age
	// category at the end of the focal run.
	CumulativeLosses [metrics.NumCategories]Estimate `json:"cumulative_losses"`
}

// MeasurePaperShape runs base once per (threshold, seed) with the
// paper's observers attached and reduces the runs to a PaperShape.
// focal must be one of the thresholds.
func MeasurePaperShape(ctx context.Context, base sim.Config, thresholds []int, focal int, seeds []uint64, parallelism int) (*PaperShape, error) {
	if !slices.Contains(thresholds, focal) {
		return nil, fmt.Errorf("experiments: paper shape: focal threshold %d is not among %v", focal, thresholds)
	}
	base.Observers = sim.PaperObservers()
	camp := Campaign{Name: "paper-shape", Base: base}
	for _, t := range thresholds {
		for _, seed := range seeds {
			camp.Variants = append(camp.Variants, Variant{
				Name:   fmt.Sprintf("threshold %d seed %d", t, seed),
				Seed:   seed,
				Mutate: func(c *sim.Config) { c.RepairThreshold = t },
			})
		}
	}
	rows, err := Runner{Parallelism: parallelism}.Run(ctx, camp)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(camp.Variants) {
		return nil, fmt.Errorf("experiments: paper shape: %d of %d runs completed", len(rows), len(camp.Variants))
	}
	shape := &PaperShape{
		Peers: base.NumPeers, Rounds: base.Rounds, Seeds: seeds, Thresholds: thresholds, Focal: focal,
		RepairRate: make([][metrics.NumCategories]Estimate, len(thresholds)),
		LossRate:   make([]Estimate, len(thresholds)),
	}
	estimate := func(s *stats.Stream) Estimate { return Estimate{Mean: s.Mean(), CI95: s.CI95()} }
	for ti, t := range thresholds {
		var repair, cumLoss [metrics.NumCategories]stats.Stream
		var loss stats.Stream
		var observers []stats.Stream
		for _, row := range rows[ti*len(seeds) : (ti+1)*len(seeds)] {
			col := row.Result.Collector
			var outages, peerRounds int64
			for c := metrics.Category(0); c < metrics.NumCategories; c++ {
				repair[c].Add(col.RepairRatePer1000(c))
				outages += col.Counts(c).Outages
				peerRounds += col.Counts(c).PeerRounds
				_, last := col.LossSeries(c).Last()
				cumLoss[c].Add(last)
			}
			loss.Add(float64(float64(outages) / float64(peerRounds) * 1000))
			obs := row.Result.Observers
			if observers == nil {
				observers = make([]stats.Stream, obs.Len())
				shape.ObserverNames = obs.Names()
			}
			for i := range observers {
				observers[i].Add(float64(obs.Count(i)))
			}
		}
		for c := range repair {
			shape.RepairRate[ti][c] = estimate(&repair[c])
		}
		shape.LossRate[ti] = estimate(&loss)
		if t != focal {
			continue
		}
		for i := range observers {
			shape.ObserverRepairs = append(shape.ObserverRepairs, estimate(&observers[i]))
		}
		for c := range cumLoss {
			shape.CumulativeLosses[c] = estimate(&cumLoss[c])
		}
	}
	return shape, nil
}
