package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// runRedundancyTwice executes the fixed-vs-adaptive campaign at two
// parallelism levels and fails unless both write identical data files —
// the determinism contract extended to the adaptive policy layer:
// grow/shrink trajectories are a pure function of the variant seed,
// never of worker scheduling.
func runRedundancyTwice(t *testing.T, cfg sim.Config, trace *churn.Trace, spec string) []Row {
	t.Helper()
	run := func(parallelism int) []Row {
		rows, err := Runner{Parallelism: parallelism}.Run(context.Background(), redundancyCampaign(cfg, trace, spec))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a := run(1)
	sameTables(t, "fixed-vs-adaptive", a, run(4))
	return a
}

// microAdaptiveSpec is the adaptive arm the micro-scale tests sweep:
// the package's five-nines default is unreachable at microConfig's
// 16-block code shape, and the default hysteresis band (6 blocks) is
// as wide as the shape's whole [k', n] range — either default would
// pin every archive at Max and make the assertions vacuous — so the
// tests pick a target the shape can undercut and a band it can cross,
// which exercises the full grow/shrink dynamics.
const microAdaptiveSpec = "adaptive:target=0.9,hysteresis=2"

func redundancyDigest(t *testing.T, rows []Row) uint64 {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(renderTables(t, "fixed-vs-adaptive", rows)["scenario_redundancy.tsv"]))
	return h.Sum64()
}

// TestRedundancyCampaignDeterminism: the campaign's full TSV — every
// counter, overhead and cost column — is identical across parallelism
// levels and across repeated executions, adaptive arms genuinely act,
// and fixed arms never touch the redundancy machinery.
func TestRedundancyCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	rows := runRedundancyTwice(t, cfg, nil, microAdaptiveSpec)
	wantLabels := []string{
		"iid/fixed", "iid/" + microAdaptiveSpec,
		"diurnal/fixed", "diurnal/" + microAdaptiveSpec,
		"shock/fixed", "shock/" + microAdaptiveSpec,
	}
	if len(rows) != len(wantLabels) {
		t.Fatalf("%d rows, want %d", len(rows), len(wantLabels))
	}
	for i, w := range wantLabels {
		if rows[i].Name != w {
			t.Fatalf("label[%d] = %q, want %q", i, rows[i].Name, w)
		}
	}
	for i, r := range rows {
		col := r.Result.Collector
		grows, shrinks, added := col.RedundancyGrows(), col.RedundancyShrinks(), col.ParityBlocksAdded()
		if i%2 == 0 { // fixed arm
			if grows != 0 || shrinks != 0 || added != 0 || parityCostHours(r) != 0 {
				t.Errorf("%s: fixed arm recorded redundancy activity: grows %d shrinks %d parity %d", r.Name, grows, shrinks, added)
			}
			if meanRedundancy(r) != float64(cfg.TotalBlocks) {
				t.Errorf("%s: fixed mean_n = %v, want %d", r.Name, meanRedundancy(r), cfg.TotalBlocks)
			}
		} else { // adaptive arm
			if grows == 0 || added == 0 {
				t.Errorf("%s: adaptive arm never grew: grows %d parity %d", r.Name, grows, added)
			}
			if parityCostHours(r) <= 0 {
				t.Errorf("%s: parity cost = %v, want > 0", r.Name, parityCostHours(r))
			}
		}
	}
	a := redundancyDigest(t, rows)
	b := redundancyDigest(t, runRedundancyTwice(t, cfg, nil, microAdaptiveSpec))
	if a != b {
		t.Fatalf("redundancy digests differ across executions: %#x vs %#x", a, b)
	}
}

// TestRedundancyCampaignDominance is the acceptance criterion on the
// i.i.d. scenario: the adaptive policy must hold storage overhead at or
// below the fixed policy's n-per-archive bill without giving up object
// durability (no more permanent losses than fixed).
func TestRedundancyCampaignDominance(t *testing.T) {
	rows := runRedundancyTwice(t, microConfig(), nil, microAdaptiveSpec)
	fixed, adaptive := rows[0], rows[1]
	if fixed.Name != "iid/fixed" || adaptive.Name != "iid/"+microAdaptiveSpec {
		t.Fatalf("unexpected iid labels: %q, %q", fixed.Name, adaptive.Name)
	}
	if overhead(adaptive) > overhead(fixed) {
		t.Errorf("adaptive overhead %.4f > fixed %.4f: no storage savings", overhead(adaptive), overhead(fixed))
	}
	if a, f := adaptive.Result.Collector.TotalHardLosses(), fixed.Result.Collector.TotalHardLosses(); a > f {
		t.Errorf("adaptive hard losses %d > fixed %d: durability regressed", a, f)
	}
}

// TestRedundancyCampaignReplay: with a trace the campaign gains the
// replay block, and both of its arms see the identical churn sequence
// (the paired comparison synthetic churn cannot offer).
func TestRedundancyCampaignReplay(t *testing.T) {
	rec := microConfig()
	rec.RecordTrace = true
	s, err := sim.New(rec)
	if err != nil {
		t.Fatal(err)
	}
	trace := s.Run().Trace

	rows := runRedundancyTwice(t, microConfig(), trace, microAdaptiveSpec)
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	fixed, adaptive := rows[6], rows[7]
	if fixed.Name != "replay/fixed" || adaptive.Name != "replay/"+microAdaptiveSpec {
		t.Fatalf("unexpected replay labels: %q, %q", fixed.Name, adaptive.Name)
	}
	if adaptive.Result.Collector.RedundancyGrows() == 0 {
		t.Errorf("replay adaptive arm never grew")
	}
	if a, f := adaptive.Result.FinalPlacements, fixed.Result.FinalPlacements; a >= f {
		t.Errorf("replay adaptive placements %d >= fixed %d: no storage savings on identical churn", a, f)
	}
}

func TestRegistryHasRedundancyExperiment(t *testing.T) {
	if !strings.Contains(strings.Join(Names(), " "), "fixed-vs-adaptive") {
		t.Fatalf("Names() = %v missing fixed-vs-adaptive", Names())
	}
}

// TestOptionsRedundancyValidatesEagerly: a bad -redundancy spec fails
// before any simulation runs, and a valid adaptive override becomes the
// campaign's adaptive arm.
func TestOptionsRedundancyValidatesEagerly(t *testing.T) {
	if _, err := RunCtx(context.Background(), "fig1", Options{Knobs: Knobs{Redundancy: "bogus:x"}}); err == nil {
		t.Fatal("bad redundancy spec accepted")
	}
	if got := redundancyAdaptiveSpec("adaptive:target=0.95"); got != "adaptive:target=0.95" {
		t.Fatalf("adaptive arm = %q, want the override", got)
	}
	// A fixed (static) override cannot serve as the adaptive arm.
	if got := redundancyAdaptiveSpec("fixed"); got != "adaptive" {
		t.Fatalf("adaptive arm = %q, want default", got)
	}
}

// TestRedundancyOverheadUsesTracePopulation: a replayed trace defines
// its run's population (sim.Config.Validate), so the replay rows'
// overhead divides the stored blocks by the trace's peers times k, not
// by the NumPeers the variant was built with — in process and under the
// supervisor alike.
func TestRedundancyOverheadUsesTracePopulation(t *testing.T) {
	micro := microConfig()
	trace := recordTrace(t, 3*micro.NumPeers/2)
	pop := int(trace.MaxPeer()) + 1
	if pop == micro.NumPeers {
		t.Fatalf("trace population %d equals the preset's: the test would prove nothing", pop)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := churn.WriteTraceFile(path, trace); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"in-process", "supervised"} {
		opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3, TracePath: path, Redundancy: microAdaptiveSpec},
			Parallelism: 2, OutDir: t.TempDir()}
		if mode == "supervised" {
			opts.Supervisor = testSupervisor()
		}
		sums, err := runShrunk("fixed-vs-adaptive", opts, func(s *CampaignSpec) { s.Overrides = microSpec().Overrides })
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		replay := 0
		for _, line := range strings.Split(readSummaryFile(t, sums, "scenario_redundancy.tsv"), "\n") {
			f := strings.Split(line, "\t") // variant, repairs, outages, hard_losses, final_placements, overhead, ...
			if !strings.HasPrefix(f[0], "replay/") {
				continue
			}
			replay++
			placements, err := strconv.Atoi(f[4])
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%.6g", float64(placements)/float64(pop*micro.DataBlocks)); f[5] != want {
				t.Errorf("%s %s: overhead %s, want %d placements / (%d peers x k=%d) = %s",
					mode, f[0], f[5], placements, pop, micro.DataBlocks, want)
			}
		}
		if replay != 2 {
			t.Errorf("%s: %d replay rows, want 2", mode, replay)
		}
	}
}
