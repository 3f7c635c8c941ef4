package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
)

// testdata/v1_reference.json is the PaperShape of the engine this one
// replaced (the sequential walk on one rng stream, commit fbf2b01),
// recorded by that engine before it was deleted: 400 peers x 6000
// rounds, thresholds 132/148/164/180, seeds 1-8. Never regenerate it
// with the current engine; a later trajectory-changing change is judged
// against it the same way.
//
// Equivalence is same shape plus a bounded, explained shift — not equal
// means. What is known to differ: a threshold crossing caused mid-walk
// is acted on in the next round, never the same one, so some triggers
// heal before they are seen. Evidence for the tolerances below, this
// engine against the reference at this scale: figure 1 reads -7.3 % on
// average over its twelve populated cells (-7.4 % over the 52 cells of
// the smoke-scale campaign), from -0.6 % to -23 % and once +10 %;
// figures 2-4 are counts of a few events per run (loss rates of
// 0.0002-0.0006, two to thirty observer repairs) and move by up to 0.7
// of their confidence interval in either direction. No quantity differs
// by more than 0.70 of the two 95 % intervals combined.

// resolved reports whether b exceeds a by more than k times their
// combined confidence interval.
func resolved(a, b Estimate, k float64) bool {
	return b.Mean-a.Mean > k*math.Hypot(a.CI95, b.CI95)
}

// requirePaperShape asserts the paper's qualitative results on a
// measured shape; ref supplies the observer order to hold it to.
func requirePaperShape(t *testing.T, got, ref *PaperShape, k float64) {
	t.Helper()
	for ti, row := range got.RepairRate {
		for c := metrics.Young; c < metrics.NumCategories; c++ {
			if row[c].Mean >= row[metrics.Newcomer].Mean {
				t.Errorf("threshold %d: %v repair %.3f per 1000 peer-rounds, newcomers %.3f: newcomers must repair most",
					got.Thresholds[ti], c, row[c].Mean, row[metrics.Newcomer].Mean)
			}
		}
		if ti > 0 && row[metrics.Newcomer].Mean <= got.RepairRate[ti-1][metrics.Newcomer].Mean {
			t.Errorf("repairs do not rise from threshold %d to %d", got.Thresholds[ti-1], got.Thresholds[ti])
		}
		// Losses fall with the threshold: steeply off the lowest, then
		// within noise of nothing.
		if ti > 0 && got.LossRate[ti].Mean >= got.LossRate[0].Mean/4 {
			t.Errorf("threshold %d loses %.4f archives per 1000 peer-rounds, threshold %d %.4f: losses must fall",
				got.Thresholds[ti], got.LossRate[ti].Mean, got.Thresholds[0], got.LossRate[0].Mean)
		}
	}
	for i, a := range ref.ObserverRepairs {
		for j, b := range ref.ObserverRepairs {
			if resolved(a, b, k) && got.ObserverRepairs[i].Mean >= got.ObserverRepairs[j].Mean {
				t.Errorf("observer %s repaired %.1f times, %s %.1f: the reference has them the other way round",
					ref.ObserverNames[i], got.ObserverRepairs[i].Mean, ref.ObserverNames[j], got.ObserverRepairs[j].Mean)
			}
		}
	}
}

// TestPaperShapeMatchesV1Reference is the statistical-equivalence
// harness: the engine's figure 1-4 quantities against the replaced
// engine's, by shape and by tolerance. -short (and a race build) runs
// two seeds and checks shape only.
func TestPaperShapeMatchesV1Reference(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref PaperShape
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	requirePaperShape(t, &ref, &ref, 1)

	base := sim.DefaultConfig()
	base.NumPeers = ref.Peers
	base.Rounds = ref.Rounds
	seeds, k := ref.Seeds, 1.0
	short := testing.Short() || raceEnabled
	if short {
		seeds, k = seeds[:2], 2
	}
	got, err := MeasurePaperShape(context.Background(), base, ref.Thresholds, ref.Focal, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	requirePaperShape(t, got, &ref, k)
	if short {
		return
	}

	// Tolerance, quantity by quantity: no difference resolved at 95 %.
	within := func(what string, g, r Estimate) {
		if d, ci := math.Abs(g.Mean-r.Mean), math.Hypot(g.CI95, r.CI95); d > ci {
			t.Errorf("%s = %.4f ± %.4f, reference %.4f ± %.4f: differs by %.2f of the combined interval",
				what, g.Mean, g.CI95, r.Mean, r.CI95, d/ci)
		}
	}
	shift, cells := 0.0, 0
	for ti, th := range ref.Thresholds {
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			g, r := got.RepairRate[ti][c], ref.RepairRate[ti][c]
			within(fmt.Sprintf("figure 1, threshold %d, %v", th, c), g, r)
			if r.Mean > 0 {
				shift += g.Mean/r.Mean - 1
				cells++
			}
		}
		within(fmt.Sprintf("figure 2, threshold %d", th), got.LossRate[ti], ref.LossRate[ti])
	}
	for i, name := range ref.ObserverNames {
		within("figure 3, "+name, got.ObserverRepairs[i], ref.ObserverRepairs[i])
	}
	for c := metrics.Category(0); c < metrics.NumCategories; c++ {
		within("figure 4, "+c.String(), got.CumulativeLosses[c], ref.CumulativeLosses[c])
	}
	// And the one systematic shift there is stays the size it was
	// explained at.
	if shift /= float64(cells); shift < -0.15 || shift > 0.03 {
		t.Errorf("figure 1 reads %+.1f %% against the reference on average, want within [-15 %%, +3 %%]", 100*shift)
	}
	t.Logf("figure 1 mean shift against the v1 reference: %+.1f %% over %d cells", 100*shift, cells)
}
