package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// populatedCollector builds a collector with every counter class
// touched, including awkward float values that expose lossy encodings.
func populatedCollector() *Collector {
	c := NewCollector(24, 48)
	for round := int64(0); round < 24*10; round++ {
		var pop [NumCategories]int64
		pop[Newcomer] = 7
		pop[Young] = 3
		c.AddPeerRounds(round, Newcomer, 7)
		c.AddPeerRounds(round, Young, 3)
		if round%5 == 0 {
			c.RecordRepair(round, Newcomer, round%10 == 0, 3, 1)
		}
		if round%17 == 0 {
			c.RecordOutage(round, Young)
		}
		if round%31 == 0 {
			c.RecordHardLoss(round, Young)
		}
		if round == 100 {
			c.RecordShock(round, 5)
		}
		if round%7 == 0 {
			c.RecordBackupTime(round, float64(round)/3.0)
		}
		if round%11 == 0 {
			c.RecordRestoreTime(round, math.Sqrt(float64(round+2)))
		}
		if round == 120 {
			c.RecordRestoreFailed(round)
		}
		if round%13 == 0 {
			c.RecordRedundancyChange(round, 128, 128+int(round%5)-2)
		}
		c.RecordRedundancyLevel(round, 128.0+1.0/3.0)
		if round%29 == 0 {
			c.RecordStall(round, Newcomer)
		}
		c.EndRound(round, pop)
	}
	return c
}

func TestCollectorJSONRoundTrip(t *testing.T) {
	raw, err := json.Marshal(populatedCollector())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The same collector as encoded before the per-profile totals, the
	// per-day repair series and the shock-victim count were dropped:
	// checkpoint journals written then still carry those keys, and they
	// must decode into the same collector.
	parent, err := os.ReadFile("testdata/collector_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"prof_repairs", "prof_losses", "repair_series", "today_repairs", "shock_victims"} {
		if !bytes.Contains(parent, []byte(`"`+key+`"`)) {
			t.Fatalf("fixture lacks the dropped key %q", key)
		}
	}
	for _, in := range []struct {
		name string
		raw  []byte
	}{{"round trip", raw}, {"parent-written", parent}} {
		c := populatedCollector()
		var back Collector
		if err := json.Unmarshal(in.raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", in.name, err)
		}
		raw2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", in.name, err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("%s: not byte-identical to a fresh encoding:\n%s\nvs\n%s", in.name, raw, raw2)
		}

		// Spot-check derived accessors for bit-equality, not just
		// encoding stability: rates divide int64 counters, quantiles
		// sort replayed samples, series carry float points.
		for cat := Category(0); cat < NumCategories; cat++ {
			if got, want := back.RepairRatePer1000(cat), c.RepairRatePer1000(cat); got != want {
				t.Errorf("%s: %v repair rate: got %v want %v", in.name, cat, got, want)
			}
			if got, want := back.LossRatePer1000(cat), c.LossRatePer1000(cat); got != want {
				t.Errorf("%s: %v loss rate: got %v want %v", in.name, cat, got, want)
			}
			a, b := c.LossSeries(cat), back.LossSeries(cat)
			if a.Len() != b.Len() {
				t.Fatalf("%s: %v loss series len: got %d want %d", in.name, cat, b.Len(), a.Len())
			}
			for i := 0; i < a.Len(); i++ {
				ax, ay := a.At(i)
				bx, by := b.At(i)
				if ax != bx || ay != by {
					t.Errorf("%s: %v loss series point %d: got (%v,%v) want (%v,%v)", in.name, cat, i, bx, by, ax, ay)
				}
			}
		}
		for _, q := range []float64{0.5, 0.95} {
			if got, want := back.TimeToBackup().Quantile(q), c.TimeToBackup().Quantile(q); got != want {
				t.Errorf("%s: ttb q%v: got %v want %v", in.name, q, got, want)
			}
		}
		if got, want := back.TimeToRestore().Mean(), c.TimeToRestore().Mean(); got != want {
			t.Errorf("%s: ttr mean: got %v want %v", in.name, got, want)
		}
		if back.RestoresFailed() != c.RestoresFailed() {
			t.Errorf("%s: restores failed: got %d want %d", in.name, back.RestoresFailed(), c.RestoresFailed())
		}
		if back.TotalRepairs() != c.TotalRepairs() || back.TotalLosses() != c.TotalLosses() ||
			back.TotalHardLosses() != c.TotalHardLosses() || back.TotalShocks() != c.TotalShocks() ||
			back.ShockAttributedLosses() != c.ShockAttributedLosses() {
			t.Errorf("%s: totals diverged after round trip", in.name)
		}
		if back.ParityBlocksAdded() != c.ParityBlocksAdded() || back.ParityBlocksReclaimed() != c.ParityBlocksReclaimed() {
			t.Errorf("%s: parity counters diverged after round trip", in.name)
		}

		// The decoded collector must keep behaving like the original:
		// transient per-day accumulators travel too.
		var pop [NumCategories]int64
		pop[Newcomer] = 7
		cNext, backNext := c, &back
		for round := int64(24 * 10); round < 24*12; round++ {
			cNext.AddPeerRounds(round, Newcomer, 7)
			backNext.AddPeerRounds(round, Newcomer, 7)
			if round%5 == 0 {
				cNext.RecordRepair(round, Newcomer, false, 2, 0)
				backNext.RecordRepair(round, Newcomer, false, 2, 0)
			}
			cNext.EndRound(round, pop)
			backNext.EndRound(round, pop)
		}
		if got, want := backNext.LossSeries(Newcomer).Len(), cNext.LossSeries(Newcomer).Len(); got != want {
			t.Fatalf("%s: post-decode recording diverged: %d vs %d points", in.name, got, want)
		}
	}
}

func TestObserverTrackerJSONRoundTrip(t *testing.T) {
	tr := NewObserverTracker([]string{"young", "old"})
	tr.RecordRepair(10, 0)
	tr.RecordRepair(20, 1)
	tr.RecordRepair(30, 0)
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ObserverTracker
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("round trip not byte-identical")
	}
	if back.Count(0) != 2 || back.Count(1) != 1 || back.Len() != 2 {
		t.Fatalf("counts diverged: %d %d", back.Count(0), back.Count(1))
	}
}

func TestDurationsJSONRoundTrip(t *testing.T) {
	var d Durations
	for i := 0; i < 100; i++ {
		d.Record(math.Exp(float64(i) / 17.0))
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Durations
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.N() != d.N() || back.Mean() != d.Mean() || back.Quantile(0) != d.Quantile(0) || back.Max() != d.Max() {
		t.Fatalf("moments diverged: n=%d mean=%v", back.N(), back.Mean())
	}
	if back.Quantile(0.9) != d.Quantile(0.9) {
		t.Fatalf("quantile diverged")
	}
}
