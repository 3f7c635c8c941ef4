package experiments

import (
	"bytes"
	"context"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// runRedundancyTwice executes the fixed-vs-adaptive campaign at two
// parallelism levels and fails unless both produce identical typed
// results — the determinism contract extended to the adaptive policy
// layer: grow/shrink trajectories are a pure function of the variant
// seed, never of worker scheduling.
func runRedundancyTwice(t *testing.T, cfg sim.Config, trace *churn.Trace, spec string) *RedundancyResult {
	t.Helper()
	run := func(parallelism int) *RedundancyResult {
		rows, err := Runner{Parallelism: parallelism}.Run(context.Background(), RedundancyCampaign(cfg, trace, spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RedundancyFromRows("fixed-vs-adaptive", rows)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("redundancy campaign not deterministic across parallelism:\n%+v\n%+v", a, b)
	}
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

func redundancyDigest(t *testing.T, res *RedundancyResult) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// TestRedundancyCampaignDeterminism: the campaign's full TSV — every
// counter, overhead and cost column — is identical across parallelism
// levels and across repeated executions, adaptive arms genuinely act,
// and fixed arms never touch the redundancy machinery.
func TestRedundancyCampaignDeterminism(t *testing.T) {
	cfg := microConfig()
	res := runRedundancyTwice(t, cfg, nil, microAdaptiveSpec)
	wantLabels := []string{
		"iid/fixed", "iid/" + microAdaptiveSpec,
		"diurnal/fixed", "diurnal/" + microAdaptiveSpec,
		"shock/fixed", "shock/" + microAdaptiveSpec,
	}
	if len(res.Points) != len(wantLabels) {
		t.Fatalf("%d points, want %d", len(res.Points), len(wantLabels))
	}
	for i, w := range wantLabels {
		if res.Points[i].Label != w {
			t.Fatalf("label[%d] = %q, want %q", i, res.Points[i].Label, w)
		}
	}
	for i, p := range res.Points {
		if i%2 == 0 { // fixed arm
			if p.Grows != 0 || p.Shrinks != 0 || p.ParityAdded != 0 || p.ParityCostHours != 0 {
				t.Errorf("%s: fixed arm recorded redundancy activity: %+v", p.Label, p)
			}
			if p.MeanRedundancy != float64(cfg.TotalBlocks) {
				t.Errorf("%s: fixed mean_n = %v, want %d", p.Label, p.MeanRedundancy, cfg.TotalBlocks)
			}
		} else { // adaptive arm
			if p.Grows == 0 || p.ParityAdded == 0 {
				t.Errorf("%s: adaptive arm never grew: %+v", p.Label, p)
			}
			if p.ParityCostHours <= 0 {
				t.Errorf("%s: parity cost = %v, want > 0", p.Label, p.ParityCostHours)
			}
		}
	}
	a := redundancyDigest(t, res)
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
	res := runRedundancyTwice(t, microConfig(), nil, microAdaptiveSpec)
	fixed, adaptive := res.Points[0], res.Points[1]
	if fixed.Label != "iid/fixed" || adaptive.Label != "iid/"+microAdaptiveSpec {
		t.Fatalf("unexpected iid labels: %q, %q", fixed.Label, adaptive.Label)
	}
	if adaptive.Overhead > fixed.Overhead {
		t.Errorf("adaptive overhead %.4f > fixed %.4f: no storage savings", adaptive.Overhead, fixed.Overhead)
	}
	if adaptive.HardLosses > fixed.HardLosses {
		t.Errorf("adaptive hard losses %d > fixed %d: durability regressed", adaptive.HardLosses, fixed.HardLosses)
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

	res := runRedundancyTwice(t, microConfig(), trace, microAdaptiveSpec)
	if len(res.Points) != 8 {
		t.Fatalf("%d points, want 8", len(res.Points))
	}
	fixed, adaptive := res.Points[6], res.Points[7]
	if fixed.Label != "replay/fixed" || adaptive.Label != "replay/"+microAdaptiveSpec {
		t.Fatalf("unexpected replay labels: %q, %q", fixed.Label, adaptive.Label)
	}
	if adaptive.Grows == 0 {
		t.Errorf("replay adaptive arm never grew: %+v", adaptive)
	}
	if adaptive.FinalPlacements >= fixed.FinalPlacements {
		t.Errorf("replay adaptive placements %d >= fixed %d: no storage savings on identical churn",
			adaptive.FinalPlacements, fixed.FinalPlacements)
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
	if _, err := RunCtx(context.Background(), "fig1", Options{Redundancy: "bogus:x"}); err == nil {
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
