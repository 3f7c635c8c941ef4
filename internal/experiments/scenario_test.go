package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// runAblationTwice executes the campaign twice and fails unless both
// executions write identical data files for experiment id — the
// determinism contract every scenario campaign must honour (same seed,
// same output, at any parallelism).
func runAblationTwice(t *testing.T, id string, build func() Campaign) []Row {
	t.Helper()
	run := func(parallelism int) []Row {
		rows, err := Runner{Parallelism: parallelism}.Run(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a := run(2)
	sameTables(t, id, a, run(1))
	return a
}

func TestDiurnalCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	amps := []float64{0, 0.5, 0.9}
	rows := runAblationTwice(t, "diurnal", func() Campaign { return DiurnalCampaign(cfg, amps) })
	if len(rows) != len(amps) {
		t.Fatalf("%d rows, want %d", len(rows), len(amps))
	}
	if rows[0].Name != "amp=0.00" || rows[2].Name != "amp=0.90" {
		t.Fatalf("labels = %v %v", rows[0].Name, rows[2].Name)
	}
	// The amplitude must matter: a full-swing day/night cycle cannot
	// produce the identical trajectory as flat availability.
	if dataLine(t, "diurnal", "scenario_diurnal.tsv", rows, 0) == dataLine(t, "diurnal", "scenario_diurnal.tsv", rows, 2) {
		t.Fatal("amp=0 and amp=0.9 produced identical outcomes")
	}
}

func TestBlackoutCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows := runAblationTwice(t, "blackout", func() Campaign { return BlackoutCampaign(cfg) })
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	if rows[0].Name != "baseline" || rows[0].Result.Collector.TotalShocks() != 0 {
		t.Fatalf("baseline row %q fired %d shocks", rows[0].Name, rows[0].Result.Collector.TotalShocks())
	}
	for _, r := range rows[1:4] {
		if n := r.Result.Collector.TotalShocks(); n != 1 {
			t.Fatalf("%s fired %d shocks, want 1 (scheduled mid-run)", r.Name, n)
		}
	}
}

func TestReplayCampaignDeterminism(t *testing.T) {
	trace := recordMicroTrace(t)
	cfg := microConfig()
	rows := runAblationTwice(t, "replay", func() Campaign { return ReplayCampaign(cfg, trace) })
	if len(rows) == 0 {
		t.Fatal("no replay rows")
	}
	// Identical churn per variant: every strategy must see the same
	// death sequence.
	for _, r := range rows[1:] {
		if r.Result.Deaths != rows[0].Result.Deaths {
			t.Fatalf("strategy %q saw %d deaths, %q saw %d — replay churn not shared",
				r.Name, r.Result.Deaths, rows[0].Name, rows[0].Result.Deaths)
		}
	}
}

// recordMicroTrace captures the churn of a short micro-scale run.
func recordMicroTrace(t testing.TB) *churn.Trace {
	return recordTrace(t, microConfig().NumPeers)
}

// recordTrace captures the churn of a short run with the given
// population (the archive shape does not matter for trace content).
func recordTrace(t testing.TB, peers int) *churn.Trace {
	t.Helper()
	cfg := microConfig()
	cfg.NumPeers = peers
	cfg.Rounds = 200
	cfg.RecordTrace = true
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("no trace recorded")
	}
	return res.Trace
}

func TestRegistryReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	// The registry replays at the base scale's paper-shaped archive
	// (n=256), so the trace population must exceed n.
	if err := churn.WriteTraceFile(path, recordTrace(t, 300)); err != nil {
		t.Fatal(err)
	}
	sums, err := RunCtx(context.Background(), "replay", Options{Knobs: Knobs{TracePath: path}, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || len(sums[0].Files) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	if filepath.Base(sums[0].Files[0]) != "scenario_replay.tsv" {
		t.Fatalf("file = %s", sums[0].Files[0])
	}
	if !strings.Contains(sums[0].Text, "lifetime-oracle") {
		t.Fatalf("text = %q", sums[0].Text)
	}
}

func TestRegistryReplayNeedsTrace(t *testing.T) {
	if _, err := RunCtx(context.Background(), "replay", Options{}); err == nil {
		t.Fatal("replay without -trace accepted")
	}
	if _, err := RunCtx(context.Background(), "replay", Options{Knobs: Knobs{TracePath: "/does/not/exist.csv"}}); err == nil {
		t.Fatal("replay with missing trace accepted")
	}
}

func TestRegistryScenarioNames(t *testing.T) {
	names := strings.Join(Names(), " ")
	for _, want := range []string{"diurnal", "blackout", "replay"} {
		if !strings.Contains(names, want) {
			t.Fatalf("Names() = %v missing %q", Names(), want)
		}
	}
}

// ---------------------------------------------------------------------------
// The registry's driver is a wrapper too: table entry, spec, Runner,
// report. What it writes must be exactly what the campaign path gives.

func TestWrapperThresholdSweepAgrees(t *testing.T) {
	spec := microSpec()
	spec.Kind, spec.Delays, spec.Thresholds = "threshold", nil, []int{9, 13}
	sums, err := runShrunk("fig1", Options{Knobs: spec.Knobs, Parallelism: 2, OutDir: t.TempDir()},
		func(s *CampaignSpec) { s.Thresholds, s.Overrides = spec.Thresholds, spec.Overrides })
	if err != nil {
		t.Fatal(err)
	}
	camp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Result.Collector.TotalRepairs() == 0 {
		t.Fatalf("campaign path: %d rows", len(rows))
	}
	sameTSV(t, sums, "fig1", rows)
}

// sameTSV requires the registry's data files to hold what experiment
// id's tables write for rows.
func sameTSV(t *testing.T, sums []Summary, id string, rows []Row) {
	t.Helper()
	for file, want := range renderTables(t, id, rows) {
		if got := readSummaryFile(t, sums, file); got != want || got == "" {
			t.Fatalf("registry %s differs from the campaign path:\n%s\n%s", file, got, want)
		}
	}
}

func TestWrapperFocalAgrees(t *testing.T) {
	// The focal campaign pins threshold 148, which needs the paper's
	// archive shape: smoke's 600 peers, cut to 150 rounds.
	ov := &ConfigOverrides{Rounds: 150}
	sums, err := runShrunk("fig3", Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, OutDir: t.TempDir()},
		func(s *CampaignSpec) { s.Overrides = ov })
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := CampaignSpec{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, Overrides: ov}.baseConfig()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Runner{Parallelism: 1}.Run(context.Background(), FocalCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameTSV(t, sums, "fig3", rows)
}

func TestWrapperRegistryRunAgrees(t *testing.T) {
	// RunCtx is lookup, spec, run: both must produce the same summary
	// as the table entry run directly, under either id of a shared entry.
	a, err := RunCtx(context.Background(), "costmodel", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := campaignByID("costmodel")
	b, err := c.run(context.Background(), Options{}, c.spec(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunCtx != table entry run:\n%+v\n%+v", a, b)
	}
	if campaignByID("fig1") != campaignByID("fig2") || campaignByID("fig3") != campaignByID("fig4") {
		t.Fatal("figures drawn from the same runs must share a table entry")
	}
}

func TestEstimatorCampaignDeterminism(t *testing.T) {
	trace := recordMicroTrace(t)
	cfg := microConfig()
	cfg.Rounds = 200
	rows := runAblationTwice(t, "ablation-estimator", func() Campaign { return estimatorCampaign(cfg, trace) })
	// Three churn blocks (iid, diurnal, replay) x four strategies.
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	wantLabels := []string{"iid/age", "iid/estimator:pareto", "iid/estimator:empirical", "iid/monitored-availability"}
	for i, w := range wantLabels {
		if rows[i].Name != w {
			t.Fatalf("label[%d] = %q, want %q", i, rows[i].Name, w)
		}
	}
	// The replay block shares its churn: identical deaths per strategy.
	var replay []Row
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "replay/") {
			replay = append(replay, r)
		}
	}
	if len(replay) != 4 {
		t.Fatalf("replay block has %d rows", len(replay))
	}
	for _, r := range replay[1:] {
		if r.Result.Deaths != replay[0].Result.Deaths {
			t.Fatalf("replay churn not shared: %q saw %d deaths, %q saw %d",
				r.Name, r.Result.Deaths, replay[0].Name, replay[0].Result.Deaths)
		}
	}
	// Without a trace the campaign degrades to the two synthetic blocks.
	noTrace := estimatorCampaign(cfg, nil)
	if len(noTrace.Variants) != 8 {
		t.Fatalf("trace-less campaign has %d variants, want 8", len(noTrace.Variants))
	}
}

func TestRegistryHasEstimatorExperiment(t *testing.T) {
	names := strings.Join(Names(), " ")
	if !strings.Contains(names, "ablation-estimator") {
		t.Fatalf("Names() = %v missing ablation-estimator", Names())
	}
}
