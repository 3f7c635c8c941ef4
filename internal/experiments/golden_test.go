package experiments

import (
	"context"
	"slices"
	"testing"
)

// The constants below pin the campaigns' outcomes on the micro configs
// in this file: probes consume no randomness and the campaign seeds use
// the historical derivations, so any drift here means a change moved
// the simulated trajectories, not just the plumbing. (At this code
// shape — 16 blocks, threshold 10 — whether a crossing is acted on the
// same round or the next decides half of all repairs; the paper-shaped
// quantities are judged by shape_test.go, not here.)

type goldenCounts struct {
	label    string
	repairs  int64
	losses   int64
	uploaded int64
}

func checkAblationGolden(t *testing.T, name string, rows []Row, want []goldenCounts) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(rows), len(want))
	}
	for i, w := range want {
		r, col := rows[i], rows[i].Result.Collector
		if r.Name != w.label || col.TotalRepairs() != w.repairs || col.TotalLosses() != w.losses || uploadedBlocks(r) != w.uploaded {
			t.Errorf("%s[%d] = {%s %d %d %d}, want {%s %d %d %d}", name, i,
				r.Name, col.TotalRepairs(), col.TotalLosses(), uploadedBlocks(r), w.label, w.repairs, w.losses, w.uploaded)
		}
	}
}

func TestGoldenThresholdSweep(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 11, 13})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(rows, byThreshold)
	want := []struct {
		threshold       int
		repairs, losses int64
		newcomerRepair  float64
		newcomerLoss    float64
	}{
		{9, 51, 21, 5.033333333333333, 0.7},
		{11, 348, 9, 14.933333333333334, 0.3},
		{13, 995, 1, 36.5, 0.03333333333333333},
	}
	for i, w := range want {
		r, col := rows[i], rows[i].Result.Collector
		if r.Config.RepairThreshold != w.threshold || col.TotalRepairs() != w.repairs || col.TotalLosses() != w.losses ||
			repairRate(r, 0) != w.newcomerRepair || lossRate(r, 0) != w.newcomerLoss {
			t.Errorf("threshold %d = {%d %d %d %v %v}, want %+v", w.threshold, r.Config.RepairThreshold,
				col.TotalRepairs(), col.TotalLosses(), repairRate(r, 0), lossRate(r, 0), w)
		}
	}
}

func TestGoldenFocal(t *testing.T) {
	cfg := microConfig()
	cfg.TotalBlocks = 256
	cfg.DataBlocks = 128
	cfg.Quota = 384
	cfg.NumPeers = 600
	cfg.Rounds = 240
	rows, err := Runner{Parallelism: 1}.Run(context.Background(), FocalCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0].Result
	wantCounts := []int64{1, 1, 1, 1, 1}
	if res.Observers.Len() != len(wantCounts) {
		t.Fatalf("%d observers, want %d", res.Observers.Len(), len(wantCounts))
	}
	for i, w := range wantCounts {
		if res.Observers.Count(i) != w {
			t.Errorf("observer %d count = %d, want %d", i, res.Observers.Count(i), w)
		}
	}
	if r, l := res.Collector.TotalRepairs(), res.Collector.TotalLosses(); r != 0 || l != 0 || res.Deaths != 0 {
		t.Errorf("focal totals = %d/%d/%d, want 0/0/0", r, l, res.Deaths)
	}
}

func TestGoldenStrategyAblation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), StrategyCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// The age row is the paper's default strategy. Rows are in registry
	// order: appending to the registry keeps the index-derived variant
	// seeds of the earlier rows stable.
	checkAblationGolden(t, "strategy", rows, []goldenCounts{
		{"age", 47, 4, 1945},
		{"random", 110, 7, 2403},
		{"availability-oracle", 33, 2, 1846},
		{"lifetime-oracle", 82, 5, 2196},
		{"youngest-first", 130, 9, 2547},
		{"estimator:age", 56, 4, 2010},
		{"estimator:pareto", 141, 14, 2633},
		{"estimator:empirical", 126, 14, 2531},
		{"monitored-availability", 103, 17, 2368},
	})
}

func TestGoldenAvailabilityAblation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), availabilityCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	checkAblationGolden(t, "availability-model", rows, []goldenCounts{
		{"session", 47, 4, 1945},
		{"bernoulli", 62, 4, 2046},
	})
}

func TestGoldenHorizonAblation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), horizonCampaign(cfg, []int64{24, 48, 96}))
	if err != nil {
		t.Fatal(err)
	}
	checkAblationGolden(t, "horizon", rows, []goldenCounts{
		{"L=1d", 47, 4, 1945},
		{"L=2d", 110, 7, 2403},
		{"L=4d", 49, 4, 1964},
	})
}

func TestGoldenRepairDelayAblation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), repairDelayCampaign(cfg, []int{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	checkAblationGolden(t, "repair-delay", rows, []goldenCounts{
		{"delay=0h", 47, 4, 1945},
		{"delay=2h", 52, 26, 1978},
	})
}
