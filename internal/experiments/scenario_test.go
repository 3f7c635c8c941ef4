package experiments

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

// runAblationTwice executes the campaign twice and fails unless both
// executions produce identical typed results — the determinism
// contract every scenario campaign must honour (same seed, same
// Result, at any parallelism).
func runAblationTwice(t *testing.T, name string, build func() Campaign) *AblationResult {
	t.Helper()
	run := func(parallelism int) *AblationResult {
		rows, err := Runner{Parallelism: parallelism}.Run(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		return AblationFromRows(name, rows)
	}
	a, b := run(2), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s campaign not deterministic:\n%+v\n%+v", name, a, b)
	}
	return a
}

func TestDiurnalCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	amps := []float64{0, 0.5, 0.9}
	res := runAblationTwice(t, "diurnal", func() Campaign { return DiurnalCampaign(cfg, amps) })
	if len(res.Points) != len(amps) {
		t.Fatalf("%d points, want %d", len(res.Points), len(amps))
	}
	if res.Points[0].Label != "amp=0.00" || res.Points[2].Label != "amp=0.90" {
		t.Fatalf("labels = %v %v", res.Points[0].Label, res.Points[2].Label)
	}
	// The amplitude must matter: a full-swing day/night cycle cannot
	// produce the identical trajectory as flat availability.
	if res.Points[0] == res.Points[2] {
		t.Fatal("amp=0 and amp=0.9 produced identical outcomes")
	}
}

func TestBlackoutCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	res := runAblationTwice(t, "blackout", func() Campaign { return BlackoutCampaign(cfg) })
	if len(res.Points) != 5 {
		t.Fatalf("%d points, want 5", len(res.Points))
	}
	if res.Points[0].Label != "baseline" || res.Points[0].Shocks != 0 {
		t.Fatalf("baseline point = %+v", res.Points[0])
	}
	for _, p := range res.Points[1:4] {
		if p.Shocks != 1 {
			t.Fatalf("%s fired %d shocks, want 1 (scheduled mid-run)", p.Label, p.Shocks)
		}
	}
}

func TestReplayCampaignDeterminism(t *testing.T) {
	trace := recordMicroTrace(t)
	cfg := microConfig()
	res := runAblationTwice(t, "replay", func() Campaign { return ReplayCampaign(cfg, trace) })
	if len(res.Points) == 0 {
		t.Fatal("no replay points")
	}
	// Identical churn per variant: every strategy must see the same
	// death sequence.
	for _, p := range res.Points[1:] {
		if p.Deaths != res.Points[0].Deaths {
			t.Fatalf("strategy %q saw %d deaths, %q saw %d — replay churn not shared",
				p.Label, p.Deaths, res.Points[0].Label, res.Points[0].Deaths)
		}
	}
}

// recordMicroTrace captures the churn of a short micro-scale run.
func recordMicroTrace(t *testing.T) *churn.Trace {
	return recordTrace(t, microConfig().NumPeers)
}

// recordTrace captures the churn of a short run with the given
// population (the archive shape does not matter for trace content).
func recordTrace(t *testing.T, peers int) *churn.Trace {
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
	sums, err := RunCtx(context.Background(), "replay", Options{OutDir: dir, TracePath: path})
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
	if _, err := RunCtx(context.Background(), "replay", Options{TracePath: "/does/not/exist.csv"}); err == nil {
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
	sums, err := runShrunk("fig1", Options{Scale: spec.Scale, Seed: spec.Seed, Parallelism: 2, OutDir: t.TempDir()},
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
	sweep := ThresholdSweepFromRows(rows)
	if len(sweep.Points) != 2 || sweep.Points[0].Repairs == 0 {
		t.Fatalf("campaign path points = %+v", sweep.Points)
	}
	sameTSV(t, sums, "fig1_repairs_by_threshold.tsv", sweep.WriteRepairTSV)
	sameTSV(t, sums, "fig2_losses_by_threshold.tsv", sweep.WriteLossTSV)
}

// sameTSV requires the registry's data file to hold what emit writes.
func sameTSV(t *testing.T, sums []Summary, file string, emit func(io.Writer) error) {
	t.Helper()
	var want strings.Builder
	if err := emit(&want); err != nil {
		t.Fatal(err)
	}
	if got := readSummaryFile(t, sums, file); got != want.String() || got == "" {
		t.Fatalf("registry %s differs from the campaign path:\n%s\n%s", file, got, want.String())
	}
}

func TestWrapperFocalAgrees(t *testing.T) {
	// The focal campaign pins threshold 148, which needs the paper's
	// archive shape: smoke's 600 peers, cut to 150 rounds.
	ov := &ConfigOverrides{Rounds: 150}
	sums, err := runShrunk("fig3", Options{Scale: ScaleSmoke, Seed: 3, OutDir: t.TempDir()},
		func(s *CampaignSpec) { s.Overrides = ov })
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := CampaignSpec{Scale: ScaleSmoke, Seed: 3, Overrides: ov}.baseConfig()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Runner{Parallelism: 1}.Run(context.Background(), FocalCampaign(cfg))
	if err != nil {
		t.Fatal(err)
	}
	focal := FocalFromRow(rows[0])
	sameTSV(t, sums, "fig3_observer_repairs.tsv", focal.WriteObserverTSV)
	sameTSV(t, sums, "fig4_cumulative_losses.tsv", focal.WriteLossSeriesTSV)
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
	res := runAblationTwice(t, "estimator", func() Campaign { return EstimatorCampaign(cfg, trace) })
	// Three churn blocks (iid, diurnal, replay) x four strategies.
	if len(res.Points) != 12 {
		t.Fatalf("%d points, want 12", len(res.Points))
	}
	wantLabels := []string{"iid/age", "iid/estimator:pareto", "iid/estimator:empirical", "iid/monitored-availability"}
	for i, w := range wantLabels {
		if res.Points[i].Label != w {
			t.Fatalf("label[%d] = %q, want %q", i, res.Points[i].Label, w)
		}
	}
	// The replay block shares its churn: identical deaths per strategy.
	var replay []AblationPoint
	for _, p := range res.Points {
		if strings.HasPrefix(p.Label, "replay/") {
			replay = append(replay, p)
		}
	}
	if len(replay) != 4 {
		t.Fatalf("replay block has %d points", len(replay))
	}
	for _, p := range replay[1:] {
		if p.Deaths != replay[0].Deaths {
			t.Fatalf("replay churn not shared: %q saw %d deaths, %q saw %d",
				p.Label, p.Deaths, replay[0].Label, replay[0].Deaths)
		}
	}
	// Without a trace the campaign degrades to the two synthetic blocks.
	noTrace := EstimatorCampaign(cfg, nil)
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

// basePolicyLeakProbe is a always-accept constant-score policy used to
// prove base-config strategy fields cannot leak into strategy sweeps.
type basePolicyLeakProbe struct{}

func (basePolicyLeakProbe) Name() string { return "leak-probe" }
func (basePolicyLeakProbe) AcceptProb(selection.Context, selection.View, selection.View) float64 {
	return 1
}
func (basePolicyLeakProbe) Score(selection.Context, selection.View) float64 { return 0 }

func TestStrategySweepsIgnoreBaseStrategyFields(t *testing.T) {
	// A base config carrying a Policy (or legacy Strategy) must not
	// override the per-variant specs of strategy-sweeping campaigns:
	// Validate resolves Policy first, so a leak would silently run one
	// strategy under every label.
	cfg := microConfig()
	cfg.Rounds = 150
	builds := map[string]func(c sim.Config) Campaign{
		"strategy": StrategyCampaign,
		"horizon": func(c sim.Config) Campaign {
			return HorizonCampaign(c, []int64{24, 96})
		},
		"estimator": func(c sim.Config) Campaign {
			return EstimatorCampaign(c, nil)
		},
	}
	for name, build := range builds {
		clean := build(cfg)
		dirty := cfg
		dirty.Policy = basePolicyLeakProbe{}
		leaked := build(dirty)
		for i, v := range clean.Variants {
			want := clean.Base
			v.Mutate(&want)
			got := leaked.Base
			leaked.Variants[i].Mutate(&got)
			if got.Policy != nil || got.StrategySpec != want.StrategySpec {
				t.Fatalf("%s[%s]: base Policy leaked into variant (spec %q, policy %v)",
					name, v.Name, got.StrategySpec, got.Policy)
			}
		}
	}
}
