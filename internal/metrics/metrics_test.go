package metrics

import (
	"testing"

	"p2pbackup/internal/churn"
)

func TestCategoryBounds(t *testing.T) {
	// Pins the paper's age-category table (§4.2.1).
	cases := []struct {
		age  int64
		want Category
	}{
		{0, Newcomer},
		{3*churn.Month - 1, Newcomer},
		{3 * churn.Month, Young},
		{6*churn.Month - 1, Young},
		{6 * churn.Month, Old},
		{18*churn.Month - 1, Old},
		{18 * churn.Month, Elder},
		{10 * churn.Year, Elder},
	}
	for _, c := range cases {
		if got := CategoryOf(c.age); got != c.want {
			t.Errorf("CategoryOf(%d) = %v, want %v", c.age, got, c.want)
		}
	}
	if CategoryBound(Newcomer) != 3*churn.Month ||
		CategoryBound(Young) != 6*churn.Month ||
		CategoryBound(Old) != 18*churn.Month {
		t.Fatal("category bounds wrong")
	}
	if CategoryBound(Elder) != -1 {
		t.Fatal("Elder must be unbounded")
	}
	if NumCategories != 4 {
		t.Fatal("the paper has four categories")
	}
}

func TestCategoryNames(t *testing.T) {
	want := []string{"newcomer", "young", "old", "elder"}
	got := CategoryNames()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v", got)
		}
	}
	if Newcomer.String() != "newcomer" || Elder.String() != "elder" {
		t.Fatal("String() wrong")
	}
	if Category(9).String() == "" {
		t.Fatal("unknown category must format")
	}
}

func TestCollectorRates(t *testing.T) {
	c := NewCollector(churn.Day, 0)
	// 2000 peer-rounds as newcomer, 4 repairs and an initial backup ->
	// 2.5 per 1000.
	for r := int64(0); r < 20; r++ {
		c.AddPeerRounds(r, Newcomer, 100)
	}
	for i := 0; i < 4; i++ {
		c.RecordRepair(5, Newcomer, false, 10, 2)
	}
	c.RecordRepair(6, Newcomer, true, 256, 0) // initial
	if got := c.RepairRatePer1000(Newcomer); got != 2.5 {
		t.Fatalf("repair rate with initial = %v, want 2.5", got)
	}
	c.RecordOutage(7, Newcomer)
	if got := c.LossRatePer1000(Newcomer); got != 0.5 {
		t.Fatalf("loss rate = %v, want 0.5", got)
	}
	// Empty categories divide safely.
	if c.RepairRatePer1000(Elder) != 0 || c.LossRatePer1000(Elder) != 0 {
		t.Fatal("empty category rates must be 0")
	}
	cc := c.Counts(Newcomer)
	if cc.Repairs != 4 || cc.InitialBackups != 1 || cc.Outages != 1 ||
		cc.BlocksUploaded != 4*10+256 || cc.BlocksDropped != 8 {
		t.Fatalf("counts = %+v", cc)
	}
	if c.TotalRepairs() != 4 || c.TotalLosses() != 1 {
		t.Fatal("totals wrong")
	}
}

func TestCollectorWarmupExcluded(t *testing.T) {
	c := NewCollector(churn.Day, 100)
	c.AddPeerRounds(50, Young, 10)  // during warmup: ignored
	c.AddPeerRounds(150, Young, 10) // measured
	c.RecordRepair(50, Young, false, 1, 0)
	c.RecordRepair(150, Young, false, 1, 0)
	c.RecordOutage(99, Young)
	c.RecordHardLoss(99, Young)
	c.RecordStall(10, Young)
	cc := c.Counts(Young)
	if cc.PeerRounds != 10 || cc.Repairs != 1 || cc.Outages != 0 || cc.HardLosses != 0 || cc.StalledRounds != 0 {
		t.Fatalf("warmup leaked into counts: %+v", cc)
	}
}

func TestCollectorSeries(t *testing.T) {
	c := NewCollector(churn.Day, 0)
	var pop [NumCategories]int64
	pop[Newcomer] = 10
	// Day 1: 5 losses over 10 peers -> 0.5 cumulative.
	for r := int64(0); r < churn.Day; r++ {
		if r == 3 {
			for i := 0; i < 5; i++ {
				c.RecordOutage(r, Newcomer)
			}
		}
		c.EndRound(r, pop)
	}
	// Day 2: 10 more losses -> 1.5 cumulative.
	for r := int64(churn.Day); r < 2*churn.Day; r++ {
		if r == churn.Day+1 {
			for i := 0; i < 10; i++ {
				c.RecordOutage(r, Newcomer)
			}
		}
		c.EndRound(r, pop)
	}
	s := c.LossSeries(Newcomer)
	if s.Len() != 2 {
		t.Fatalf("series has %d points, want 2", s.Len())
	}
	if x, y := s.At(0); x != 1 || y != 0.5 {
		t.Fatalf("day 1 = (%v, %v), want (1, 0.5)", x, y)
	}
	if x, y := s.At(1); x != 2 || y != 1.5 {
		t.Fatalf("day 2 = (%v, %v), want (2, 1.5)", x, y)
	}
	// Zero-population categories do not accumulate.
	if _, y := c.LossSeries(Elder).At(1); y != 0 {
		t.Fatal("empty category accumulated losses")
	}
}

func TestCollectorPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewCollector(0, 0) },
		func() { NewCollector(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid collector params must panic")
				}
			}()
			f()
		}()
	}
}

func TestObserverTracker(t *testing.T) {
	// Pins the paper's fixed-age observer table (§4.2.2).
	names := []string{"elder", "senior", "adult", "teenager", "baby"}
	tr := NewObserverTracker(names)
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	tr.RecordRepair(24, 4)
	tr.RecordRepair(48, 4)
	tr.RecordRepair(24, 0)
	if tr.Count(4) != 2 || tr.Count(0) != 1 || tr.Count(1) != 0 {
		t.Fatal("counts wrong")
	}
	s := tr.Series(4)
	if s.Len() != 2 {
		t.Fatalf("series len = %d", s.Len())
	}
	if x, y := s.At(1); x != 2 || y != 2 {
		t.Fatalf("series point = (%v, %v), want (2, 2)", x, y)
	}
	got := tr.Names()
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("names = %v", got)
		}
	}
}

func TestCollectorShockAttribution(t *testing.T) {
	c := NewCollector(24, 0)
	// Losses before any shock are background churn.
	c.RecordOutage(10, Newcomer)
	if c.ShockAttributedLosses() != 0 {
		t.Fatal("pre-shock loss attributed")
	}
	// A zero-victim firing is counted but must not open the window.
	c.RecordShock(20, 0)
	c.RecordOutage(21, Newcomer)
	if c.TotalShocks() != 1 || c.ShockAttributedLosses() != 0 {
		t.Fatalf("zero-victim shock attributed losses: shocks=%d attributed=%d",
			c.TotalShocks(), c.ShockAttributedLosses())
	}
	// A real shock attributes losses inside the window only.
	c.RecordShock(100, 42)
	c.RecordOutage(100+shockAttributionWindow, Newcomer)
	c.RecordOutage(101+shockAttributionWindow, Newcomer)
	if c.TotalShocks() != 2 || c.ShockAttributedLosses() != 1 {
		t.Fatalf("shocks=%d attributed=%d, want 2 and 1",
			c.TotalShocks(), c.ShockAttributedLosses())
	}
}

func TestRecordRedundancyChange(t *testing.T) {
	c := NewCollector(24, 10)
	c.RecordRedundancyChange(5, 20, 30)  // pre-warmup: ignored
	c.RecordRedundancyChange(15, 20, 20) // no-op delta: ignored
	c.RecordRedundancyChange(15, 20, 24)
	c.RecordRedundancyChange(16, 24, 21)
	if c.RedundancyGrows() != 1 || c.ParityBlocksAdded() != 4 {
		t.Fatalf("grows=%d added=%d, want 1/4", c.RedundancyGrows(), c.ParityBlocksAdded())
	}
	if c.RedundancyShrinks() != 1 || c.ParityBlocksReclaimed() != 3 {
		t.Fatalf("shrinks=%d reclaimed=%d, want 1/3", c.RedundancyShrinks(), c.ParityBlocksReclaimed())
	}
	// The level series samples on the same cadence as the loss series.
	c.RecordRedundancyLevel(10, 22) // (10+1)%24 != 0: skipped
	c.RecordRedundancyLevel(23, 22)
	if c.RedundancySeries().Len() != 1 {
		t.Fatalf("series len = %d, want 1", c.RedundancySeries().Len())
	}
}
