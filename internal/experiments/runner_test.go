package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// TestRunnerRowsDeterministicAcrossParallelism: the same campaign and
// seed must yield identical rows whether run serially or concurrently.
func TestRunnerRowsDeterministicAcrossParallelism(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 10, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Runner{Parallelism: 1}.Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := Runner{Parallelism: 4}.Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(concurrent) || len(serial) != 5 {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(concurrent))
	}
	// Compare the data files the rows write: the rows must be
	// value-identical, not merely similar.
	sameTables(t, "fig1", serial, concurrent)
	for i, row := range serial {
		if row.Index != i {
			t.Fatalf("rows not ordered by index: %d at %d", row.Index, i)
		}
		if row.Config.Seed != cfg.Seed*1000003+uint64(row.Config.RepairThreshold) {
			t.Fatalf("row %d seed %d not derived from threshold", i, row.Config.Seed)
		}
	}
}

// TestRunnerCancellation: cancelling mid-campaign stops cleanly with
// ctx.Err() and no rows.
func TestRunnerCancellation(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 1 << 40 // any single variant would run for months
	camp, err := ThresholdCampaign(cfg, []int{9, 10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rows, err := Runner{Parallelism: 2}.Run(ctx, camp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatalf("cancelled campaign returned %d rows", len(rows))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; workers did not abort in-flight runs", elapsed)
	}
}

// TestRunnerStreamShape: the event stream is progress/rows followed by
// exactly one done event, then close.
func TestRunnerStreamShape(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 11})
	if err != nil {
		t.Fatal(err)
	}
	var rows, dones int
	sawDoneLast := false
	for ev := range (Runner{Parallelism: 2}).Stream(context.Background(), camp) {
		sawDoneLast = false
		switch ev.Kind {
		case EventRow:
			rows++
			if ev.Row == nil || ev.Row.Result == nil {
				t.Fatal("row event without result")
			}
			if ev.Campaign != "threshold" || !strings.HasPrefix(ev.Name, "threshold ") {
				t.Fatalf("row event labels: %+v", ev)
			}
		case EventDone:
			dones++
			sawDoneLast = true
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
		}
	}
	if rows != 2 || dones != 1 || !sawDoneLast {
		t.Fatalf("stream shape: %d rows, %d dones, done last = %v", rows, dones, sawDoneLast)
	}

	// A one-run campaign reports each tenth of its rounds.
	focal, err := BaseConfig(ScaleSmoke) // the focal run's threshold needs n >= 148
	if err != nil {
		t.Fatal(err)
	}
	focal.Rounds = 200
	var msgs, want []string
	for ev := range (Runner{Parallelism: 1}).Stream(context.Background(), FocalCampaign(focal)) {
		switch ev.Kind {
		case EventProgress:
			msgs = append(msgs, ev.Message)
		case EventDone:
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
		}
	}
	for r := int64(20); r <= 200; r += 20 {
		want = append(want, fmt.Sprintf("focal run: round %d/200", r))
	}
	if !slices.Equal(msgs, want) {
		t.Fatalf("round events = %q, want %q", msgs, want)
	}
}

// TestRunnerVariantError: a failing variant cancels the campaign and
// surfaces the real error, not the collateral cancellations.
func TestRunnerVariantError(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 999, 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Runner{Parallelism: 3}).Run(context.Background(), camp); err == nil {
		t.Fatal("invalid threshold accepted")
	} else if !strings.Contains(err.Error(), "999") {
		t.Fatalf("error does not name the failing variant: %v", err)
	}
}

// TestRunnerEmptyCampaign: an empty variant list is an error, not a
// hang.
func TestRunnerEmptyCampaign(t *testing.T) {
	if _, err := (Runner{}).Run(context.Background(), Campaign{Name: "empty"}); err == nil {
		t.Fatal("empty campaign accepted")
	}
}

// roundCounter counts round-end events for TestRunnerVariantProbes.
type roundCounter struct {
	sim.BaseProbe
	rounds int64
}

func (c *roundCounter) OnRoundEnd(sim.RoundEndEvent) { c.rounds++ }

// TestRunnerVariantProbes: per-variant probe factories attach fresh
// probes to every run.
func TestRunnerVariantProbes(t *testing.T) {
	cfg := microConfig()
	counters := make([]*roundCounter, 0, 2)
	camp := Campaign{Name: "probed", Base: cfg}
	for i := 0; i < 2; i++ {
		camp.Variants = append(camp.Variants, Variant{
			Name: "v",
			Seed: uint64(i + 1),
			Probes: func() []sim.Probe {
				c := &roundCounter{}
				counters = append(counters, c)
				return []sim.Probe{c}
			},
		})
	}
	// Parallelism 1 so the factory appends without a data race.
	if _, err := (Runner{Parallelism: 1}).Run(context.Background(), camp); err != nil {
		t.Fatal(err)
	}
	if len(counters) != 2 {
		t.Fatalf("probe factory ran %d times, want 2", len(counters))
	}
	for i, c := range counters {
		if got := c.rounds; got != cfg.Rounds {
			t.Fatalf("probe %d saw %d rounds, want %d", i, got, cfg.Rounds)
		}
	}
}

// TestRunnerRejectsSharedBaseProbes: a stateful probe in the base
// config would be shared across concurrent runs; the Runner must
// refuse rather than race.
func TestRunnerRejectsSharedBaseProbes(t *testing.T) {
	cfg := microConfig()
	cfg.Probes = []sim.Probe{&roundCounter{}}
	camp, err := ThresholdCampaign(cfg, []int{9, 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Runner{Parallelism: 2}).Run(context.Background(), camp); err == nil {
		t.Fatal("shared Base.Probes accepted for a multi-variant campaign")
	} else if !strings.Contains(err.Error(), "Variant.Probes") {
		t.Fatalf("error does not point at Variant.Probes: %v", err)
	}
	// A single-variant campaign has nothing to share; it must run.
	single, err := ThresholdCampaign(cfg, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := (Runner{Parallelism: 2}).Run(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Probes[0].(*roundCounter).rounds; got != rows[0].Config.Rounds {
		t.Fatalf("base probe saw %d rounds, want %d", got, rows[0].Config.Rounds)
	}
}

// TestRegistryRunCtxCancelled: the registry path honours cancellation.
func TestRegistryRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, "fig1", Options{Knobs: Knobs{Scale: ScaleSmoke}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// panicOnRound is a probe that panics when it sees the given round end.
type panicOnRound struct {
	sim.BaseProbe
	at int64
}

func (p *panicOnRound) OnRoundEnd(ev sim.RoundEndEvent) {
	if ev.Round == p.at {
		panic("injected variant panic")
	}
}

// TestRunnerPanicContainment: a panicking variant becomes a typed
// EventFailed with the variant config and stack attached, and its
// siblings complete — the campaign does not crash or abort.
func TestRunnerPanicContainment(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	bad := 1 // variant index that will panic mid-run
	orig := camp.Variants[bad].Probes
	camp.Variants[bad].Probes = func() []sim.Probe {
		probes := []sim.Probe{&panicOnRound{at: 50}}
		if orig != nil {
			probes = append(probes, orig()...)
		}
		return probes
	}

	var rows, failed int
	var failure Event
	for ev := range (Runner{Parallelism: 3}).Stream(context.Background(), camp) {
		switch ev.Kind {
		case EventRow:
			rows++
		case EventFailed:
			failed++
			failure = ev
		case EventDone:
			if ev.Err != nil {
				t.Fatalf("campaign aborted instead of containing the panic: %v", ev.Err)
			}
		}
	}
	if rows != 2 || failed != 1 {
		t.Fatalf("got %d rows, %d failures; want 2 rows, 1 failure", rows, failed)
	}
	if failure.Variant != bad || failure.Name != camp.Variants[bad].Name {
		t.Fatalf("failure not attributed to variant %d: %+v", bad, failure)
	}
	var pe *sim.PanicError
	if !errors.As(failure.Err, &pe) {
		t.Fatalf("failure.Err is %T, want *sim.PanicError", failure.Err)
	}
	if pe.Value != "injected variant panic" {
		t.Fatalf("panic value: %v", pe.Value)
	}
	wantSeed := cfg.Seed*1000003 + 10
	if pe.Config.Seed != wantSeed {
		t.Fatalf("panic config seed %d, want %d (variant attribution)", pe.Config.Seed, wantSeed)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack missing")
	}

	// Run (the blocking path) returns the survivors.
	got, err := (Runner{Parallelism: 1}).Run(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Run returned %d rows, want the 2 survivors", len(got))
	}
}

// TestRunnerPanicInMutate: a panic during config materialisation (not
// just mid-run) is also contained and attributed to the config as far
// as it was built: the variant's seed and what Mutate set before it
// panicked.
func TestRunnerPanicInMutate(t *testing.T) {
	cfg := microConfig()
	camp := Campaign{Name: "mutpanic", Base: cfg, Variants: []Variant{
		{Name: "ok", Seed: 5},
		{Name: "boom", Seed: 6, Mutate: func(c *sim.Config) { c.NumPeers = 77; panic("bad mutate") }},
	}}
	var rows, failed int
	for ev := range (Runner{Parallelism: 2}).Stream(context.Background(), camp) {
		switch ev.Kind {
		case EventRow:
			rows++
		case EventFailed:
			failed++
			var pe *sim.PanicError
			if !errors.As(ev.Err, &pe) || pe.Value != "bad mutate" {
				t.Fatalf("unexpected failure error: %v", ev.Err)
			}
			if pe.Config.Seed != 6 || pe.Config.NumPeers != 77 {
				t.Fatalf("panic attributed to seed %d, %d peers; want the partly built config (seed 6, 77 peers)",
					pe.Config.Seed, pe.Config.NumPeers)
			}
		case EventDone:
			if ev.Err != nil {
				t.Fatal(ev.Err)
			}
		}
	}
	if rows != 1 || failed != 1 {
		t.Fatalf("got %d rows, %d failures", rows, failed)
	}
}

// TestRunCtxEveryVariantPanics: a campaign whose every variant panics
// is an error, not an empty success: the registry's driver returns it
// and writes no data file, since a header-only table would read as a
// result. Two fig1 thresholds whose Mutate panics, in-process and under
// a supervisor, which contains the panic as the in-process pool does:
// one attempt, class panic, journaled, and no worker spawned for it.
func TestRunCtxEveryVariantPanics(t *testing.T) {
	c := *campaignByID("fig1")
	build := c.build
	c.build = func(cfg sim.Config, s *CampaignSpec, trace *churn.Trace) (Campaign, error) {
		camp, err := build(cfg, s, trace)
		for i := range camp.Variants {
			camp.Variants[i].Mutate = func(*sim.Config) { panic("boom") }
		}
		return camp, err
	}
	for _, sup := range []*Supervisor{nil, testSupervisor()} {
		var failed []Event
		opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, Parallelism: 2, OutDir: t.TempDir(), Supervisor: sup,
			Events: func(ev Event) {
				if ev.Kind == EventFailed {
					failed = append(failed, ev)
				}
			}}
		if sup != nil {
			sup.workerCmd = []string{filepath.Join(t.TempDir(), "no-worker")} // a spawn would abort the campaign
			sup.JournalPath = filepath.Join(t.TempDir(), "campaign.journal")
		}
		spec := c.spec(opts)
		spec.Thresholds, spec.Overrides = []int{9, 13}, microSpec().Overrides
		if _, err := c.run(context.Background(), opts, spec); err == nil || !strings.Contains(err.Error(), "every variant failed") {
			t.Fatalf("supervised %v: error = %v, want every variant failed", sup != nil, err)
		}
		if len(failed) != 2 {
			t.Errorf("supervised %v: %d EventFailed, want 2", sup != nil, len(failed))
		}
		for _, ev := range failed {
			var pe *sim.PanicError
			if !errors.As(ev.Err, &pe) || pe.Value != "boom" || !strings.Contains(ev.Message, "panic contained: boom") {
				t.Errorf("supervised %v: EventFailed %q, %v; want the contained panic", sup != nil, ev.Message, ev.Err)
			}
		}
		if files, err := os.ReadDir(opts.OutDir); err != nil || len(files) != 0 {
			t.Errorf("supervised %v: out dir holds %v (%v), want nothing", sup != nil, files, err)
		}
		if sup == nil {
			continue
		}
		entries, _, err := readJournal(sup.JournalPath)
		if err != nil || len(entries) != 2 {
			t.Fatalf("journal: %d entries (%v), want 2", len(entries), err)
		}
		for _, e := range entries {
			if e.Status != "failed" || e.Class != "panic" || e.Attempts != 1 {
				t.Errorf("variant %d journaled %s/%s after %d attempts, want failed/panic after 1", e.Variant, e.Status, e.Class, e.Attempts)
			}
		}
	}
}
