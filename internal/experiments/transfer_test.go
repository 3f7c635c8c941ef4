package experiments

import (
	"context"
	"hash/fnv"
	"strings"
	"testing"

	"p2pbackup/internal/transfer"
)

// runTransferTwice executes a transfer campaign at two parallelism
// levels and fails unless both write identical data files for
// experiment id — the determinism contract: a variant's trajectory (and
// therefore its TTB/TTR distributions) is a pure function of its seed,
// never of worker scheduling.
func runTransferTwice(t *testing.T, id string, build func() Campaign) []Row {
	t.Helper()
	run := func(parallelism int) []Row {
		rows, err := Runner{Parallelism: parallelism}.Run(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a := run(1)
	sameTables(t, id, a, run(4))
	return a
}

// transferDigest folds a flashcrowd campaign's full TSV output — every
// counter, every distribution moment — into one FNV-1a hash.
func transferDigest(t *testing.T, rows []Row) uint64 {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(renderTables(t, "flashcrowd", rows)["scenario_flashcrowd.tsv"]))
	return h.Sum64()
}

// TestFlashCrowdCampaignDeterminism is the acceptance-criterion test:
// with bandwidth classes enabled the flashcrowd campaign reports
// time-to-restore distributions, and the digest of its full result is
// identical across parallelism 1 and 4.
func TestFlashCrowdCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	rows := runTransferTwice(t, "flashcrowd", func() Campaign { return flashCrowdCampaign(cfg) })
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	wantLabels := []string{"instant", "dsl", "skewed"}
	for i, w := range wantLabels {
		if rows[i].Name != w {
			t.Fatalf("label[%d] = %q, want %q", i, rows[i].Name, w)
		}
	}
	for _, r := range rows {
		if col := r.Result.Collector; col.TimeToRestore().N() == 0 && col.RestoresFailed() == 0 {
			t.Errorf("%s: flash crowd produced no restore outcomes at all", r.Name)
		}
	}
	// The bandwidth-class variants must report a time-to-restore
	// distribution (the crowd's demand completes, late or on time).
	for _, i := range []int{1, 2} {
		if rows[i].Result.Collector.TimeToRestore().N() == 0 {
			t.Errorf("%s: no completed restores", rows[i].Name)
		}
	}
	// Same build, same digest: the distributions themselves are pinned,
	// not just the headline counters.
	a := transferDigest(t, rows)
	b := transferDigest(t, runTransferTwice(t, "flashcrowd", func() Campaign { return flashCrowdCampaign(cfg) }))
	if a != b {
		t.Fatalf("flashcrowd digests differ across executions: %#x vs %#x", a, b)
	}
}

func TestTransferBaselineCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows := runTransferTwice(t, "transfer-baseline", func() Campaign { return transferBaselineCampaign(cfg) })
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	if rows[0].Name != "instant" || rows[3].Name != "skewed" {
		t.Fatalf("labels = %v %v", rows[0].Name, rows[3].Name)
	}
	for _, r := range rows {
		if r.Result.Collector.TimeToBackup().N() == 0 {
			t.Errorf("%s: no time-to-backup samples", r.Name)
		}
	}
}

func TestUplinkSweepCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	cfg.Rounds = 200
	rows := runTransferTwice(t, "uplink-sweep", func() Campaign { return uplinkSweepCampaign(cfg) })
	if len(rows) != 1+len(uplinkFactors) {
		t.Fatalf("%d rows, want %d", len(rows), 1+len(uplinkFactors))
	}
	if rows[0].Name != "budget" || rows[1].Name != "up=0.25x" {
		t.Fatalf("labels = %v %v", rows[0].Name, rows[1].Name)
	}
	// Budget mode places instantly within the maintenance step; class
	// mode delivers through the scheduler a round later at the earliest.
	// The trajectories must differ.
	file := "scenario_uplink_sweep.tsv"
	if dataLine(t, "uplink-sweep", file, rows, 0) == dataLine(t, "uplink-sweep", file, rows, 1) {
		t.Fatal("budget mode and up=0.25x produced identical outcomes")
	}
}

func TestRegistryHasTransferExperiments(t *testing.T) {
	names := strings.Join(Names(), " ")
	for _, want := range []string{"transfer-baseline", "flashcrowd", "uplink-sweep"} {
		if !strings.Contains(names, want) {
			t.Fatalf("Names() = %v missing %q", Names(), want)
		}
	}
}

// TestOptionsBandwidthValidatesEagerly: a bad -bandwidth spec fails
// before any simulation runs.
func TestOptionsBandwidthValidatesEagerly(t *testing.T) {
	if _, err := RunCtx(context.Background(), "fig1", Options{Knobs: Knobs{Bandwidth: "bogus:spec"}}); err == nil {
		t.Fatal("bad bandwidth spec accepted")
	}
}

// TestUplinkSpecsRoundTrip: every uplink-sweep class spec parses to the
// class the sweep built before it was a string, transfer.DSLClass("dsl",
// 1) with its uplink scaled by the factor, bit for bit.
func TestUplinkSpecsRoundTrip(t *testing.T) {
	for _, f := range uplinkFactors {
		p, err := transfer.Parse(uplinkSpec(f))
		if err != nil {
			t.Fatalf("factor %v: %v", f, err)
		}
		want := transfer.DSLClass("dsl", 1)
		want.Up *= f
		if len(p.Classes) != 1 || p.Policy != transfer.Resume {
			t.Fatalf("factor %v: %q parsed to %+v", f, uplinkSpec(f), p)
		}
		if got := p.Classes[0]; got != want {
			t.Errorf("factor %v: %q parsed to %+v, want %+v", f, uplinkSpec(f), got, want)
		}
	}
}
