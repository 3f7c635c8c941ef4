package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

// microConfig shrinks everything so experiment plumbing tests run in
// milliseconds; the dynamics tests live in calibration_test.go.
func microConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 100
	cfg.Rounds = 300
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48
	cfg.Seed = 3
	return cfg
}

// thresholdSweep runs a threshold campaign over the Runner.
func thresholdSweep(cfg sim.Config, thresholds []int, parallelism int) ([]Row, error) {
	camp, err := ThresholdCampaign(cfg, thresholds)
	if err != nil {
		return nil, err
	}
	return Runner{Parallelism: parallelism}.Run(context.Background(), camp)
}

// runAblation runs an ablation campaign over the Runner.
func runAblation(t *testing.T, camp Campaign) []Row {
	t.Helper()
	rows, err := Runner{Parallelism: 2}.Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// renderTables renders experiment id's data files from rows as the
// registry writes them, ordered as its entry orders them: file name ->
// contents.
func renderTables(t *testing.T, id string, rows []Row) map[string]string {
	t.Helper()
	c := campaignByID(id)
	if c.order != nil {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, c.order)
	}
	out := map[string]string{}
	for _, tb := range c.tables {
		var b bytes.Buffer
		if err := tb.write(&b, rows); err != nil {
			t.Fatal(err)
		}
		out[tb.file] = b.String()
	}
	return out
}

// sameTables fails unless two row sets render to identical data files.
func sameTables(t *testing.T, id string, a, b []Row) {
	t.Helper()
	ta, tb := renderTables(t, id, a), renderTables(t, id, b)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: data files differ:\n%v\n%v", id, ta, tb)
	}
}

// dataLine is row i's line of the table in file, label column dropped:
// the variant's outcome, comparable across variants.
func dataLine(t *testing.T, id, file string, rows []Row, i int) string {
	t.Helper()
	lines := strings.Split(renderTables(t, id, rows)[file], "\n")
	for len(lines) > 0 && strings.HasPrefix(lines[0], "#") {
		lines = lines[1:]
	}
	_, outcome, _ := strings.Cut(lines[i], "\t")
	return outcome
}

// runShrunk runs experiment id the way RunCtx does — table entry, spec,
// driver, report — on a spec that tweak has shrunk: RunCtx itself only
// knows the scale presets, the smallest of which takes seconds a run.
func runShrunk(id string, opts Options, tweak func(*CampaignSpec)) ([]Summary, error) {
	c := campaignByID(id)
	if c == nil {
		return nil, fmt.Errorf("no experiment %q", id)
	}
	spec := c.spec(opts)
	tweak(&spec)
	return c.run(context.Background(), opts, spec)
}

// readSummaryFile returns the named data file of a one-summary run.
func readSummaryFile(t *testing.T, sums []Summary, name string) string {
	t.Helper()
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	for _, f := range sums[0].Files {
		if filepath.Base(f) == name {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
	}
	t.Fatalf("no %s among %v", name, sums[0].Files)
	return ""
}

func TestBaseConfigScales(t *testing.T) {
	for _, s := range []Scale{ScaleSmoke, ScaleDefault, ScalePaper, ""} {
		cfg, err := BaseConfig(s)
		if err != nil {
			t.Fatalf("scale %q: %v", s, err)
		}
		if _, err := cfg.Validate(); err != nil {
			t.Fatalf("scale %q invalid: %v", s, err)
		}
		// Intensive parameters unchanged at every scale.
		if cfg.TotalBlocks != 256 || cfg.DataBlocks != 128 || cfg.Quota != 384 {
			t.Fatalf("scale %q changed intensive parameters", s)
		}
	}
	if _, err := BaseConfig("galactic"); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if len(Scales()) != 3 {
		t.Fatal("Scales() wrong")
	}
}

func TestPaperThresholds(t *testing.T) {
	ts := paperThresholds()
	if ts[0] != 132 || ts[len(ts)-1] != 180 {
		t.Fatalf("thresholds = %v", ts)
	}
	if len(ts) != 13 {
		t.Fatalf("%d thresholds, want 13 (132..180 step 4)", len(ts))
	}
}

func TestRunThresholdSweep(t *testing.T) {
	cfg := microConfig()
	rows, err := thresholdSweep(cfg, []int{9, 11, 13}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The tables hold headers and one line per threshold, sorted.
	for file, out := range renderTables(t, "fig1", rows) {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 2+3 { // comment + header + 3 points
			t.Fatalf("%s has %d lines:\n%s", file, len(lines), out)
		}
		if !strings.Contains(lines[1], "newcomer\tyoung\told\telder") {
			t.Fatalf("header wrong: %s", lines[1])
		}
		prev := -1
		for _, line := range lines[2:] {
			field, _, _ := strings.Cut(line, "\t")
			if th, err := strconv.Atoi(field); err != nil || th <= prev {
				t.Fatalf("%s: lines not sorted by threshold:\n%s", file, out)
			} else {
				prev = th
			}
		}
	}
	if _, err := thresholdSweep(cfg, nil, 1); err == nil {
		t.Fatal("empty thresholds accepted")
	}
	// Invalid threshold propagates the sim error.
	if _, err := thresholdSweep(cfg, []int{999}, 1); err == nil {
		t.Fatal("invalid threshold accepted")
	}
}

func TestSweepDeterminism(t *testing.T) {
	cfg := microConfig()
	a, err := thresholdSweep(cfg, []int{10, 12}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := thresholdSweep(cfg, []int{10, 12}, 1) // different parallelism
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, "fig1", a, b)
}

func TestRunFocal(t *testing.T) {
	// Focal pins threshold 148, so the code shape stays the paper's, and
	// the population must supply n=256 simultaneously online partners:
	// with ~65% mean availability that needs smoke's several hundred
	// peers. Only the run is cut short.
	events, msgs := progressLog()
	opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, OutDir: t.TempDir(), Events: events}
	sums, err := runShrunk("fig3", opts, func(s *CampaignSpec) {
		s.Overrides = &ConfigOverrides{Rounds: 240}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*msgs, focalProgress) {
		t.Errorf("progress text %q, parent %q", *msgs, focalProgress)
	}
	for _, name := range []string{"elder", "senior", "adult", "teenager", "baby"} {
		if !strings.Contains(sums[0].Text, name+"\t") {
			t.Fatalf("summary misses observer %s:\n%s", name, sums[0].Text)
		}
	}
	if !strings.Contains(readSummaryFile(t, sums, "fig3_observer_repairs.tsv"), "baby") {
		t.Fatal("observer TSV missing baby")
	}
	lines := strings.Split(strings.TrimSpace(readSummaryFile(t, sums, "fig4_cumulative_losses.tsv")), "\n")
	// comment + header + one row per sampled day (240 rounds / 24 = 10).
	if len(lines) != 2+10 {
		t.Fatalf("loss TSV has %d lines", len(lines))
	}
}

func TestAblations(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	strat := runAblation(t, StrategyCampaign(cfg))
	if len(strat) != len(selection.Names()) {
		t.Fatalf("strategy variants = %d, want one per registered spec (%d)",
			len(strat), len(selection.Names()))
	}
	avail := runAblation(t, availabilityCampaign(cfg))
	if len(avail) != 2 {
		t.Fatalf("availability variants = %d", len(avail))
	}
	horizon := runAblation(t, horizonCampaign(cfg, []int64{24, 48, 96}))
	if len(horizon) != 3 {
		t.Fatalf("horizon variants = %d", len(horizon))
	}
	if horizon[0].Name != "L=1d" {
		t.Fatalf("label = %q", horizon[0].Name)
	}
	if !strings.Contains(renderTables(t, "ablation-strategy", strat)["ablation_strategy.tsv"], "lifetime-oracle") {
		t.Fatal("ablation TSV missing variant")
	}
}

func TestRegistryCostModel(t *testing.T) {
	dir := t.TempDir()
	sums, err := RunCtx(context.Background(), "costmodel", Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || len(sums[0].Files) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	if filepath.Base(sums[0].Files[0]) != "table_repair_cost.tsv" {
		t.Fatalf("file = %s", sums[0].Files[0])
	}
	if !strings.Contains(sums[0].Text, "repairs/day") {
		t.Fatalf("text = %q", sums[0].Text)
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := RunCtx(context.Background(), "nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) == 0 {
		t.Fatal("Names empty")
	}
}

// TestRunCtxKeepsJournalOnBadRun: a supervised run that fails its
// checks (unknown id, bad knob, a trace campaign without a trace or
// with one that does not open, a negative timeout) returns an error and leaves the checkpoint journal
// byte for byte as it was; one that passes them truncates it once,
// working on a copy of the caller's Supervisor.
func TestRunCtxKeepsJournalOnBadRun(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	before := []byte("0123456789abcdefg\n")
	for _, tc := range []struct {
		id      string
		knobs   Knobs
		timeout time.Duration
		err     string
	}{
		{"nope", Knobs{}, 0, "unknown experiment"},
		{"fig1", Knobs{StrategySpec: "agee"}, 0, "unknown strategy"},
		{"replay", Knobs{}, 0, "needs a churn trace"},
		{"replay", Knobs{TracePath: "/does/not/exist.csv"}, 0, "no such file"},
		{"all", Knobs{Redundancy: "bogus:x"}, 0, "bogus"},
		{"fig1", Knobs{}, -30 * time.Minute, "-30m0s is negative"},
	} {
		if err := os.WriteFile(journal, before, 0o644); err != nil {
			t.Fatal(err)
		}
		sup := testSupervisor()
		sup.JournalPath, sup.VariantTimeout = journal, tc.timeout
		_, err := RunCtx(context.Background(), tc.id, Options{Knobs: tc.knobs, Supervisor: sup})
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s %+v: error %v, want one naming %q", tc.id, tc.knobs, err, tc.err)
		}
		if after, _ := os.ReadFile(journal); !bytes.Equal(after, before) {
			t.Errorf("%s %+v: journal %q after the failed run, was %q", tc.id, tc.knobs, after, before)
		}
	}
	sup := testSupervisor()
	sup.JournalPath = journal
	if _, err := RunCtx(context.Background(), "costmodel", Options{Supervisor: sup}); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(journal); len(after) != 0 || sup.Resume {
		t.Errorf("fresh run: journal %q, caller's Resume %v; want it truncated and the caller's Supervisor untouched", after, sup.Resume)
	}
}

func TestCategoriesCoverMicroRun(t *testing.T) {
	// Sanity: the micro run is too short for elders; rates must come
	// back zero, not NaN.
	cfg := microConfig()
	rows, err := thresholdSweep(cfg, []int{10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if repairRate(r, metrics.Elder) != 0 || lossRate(r, metrics.Elder) != 0 {
		t.Fatalf("elder rates in a %d-round run: %v, %v", cfg.Rounds, repairRate(r, metrics.Elder), lossRate(r, metrics.Elder))
	}
	if repairRate(r, metrics.Newcomer) <= 0 {
		t.Fatal("newcomers never repaired in a churny micro run")
	}
	_ = churn.Day
}
