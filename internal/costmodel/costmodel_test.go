package costmodel

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPaperNumbers(t *testing.T) {
	// Pins the section 2.2.4 arithmetic.
	link := DSL2009()
	code := PaperCode()
	if code.BlockBytes() != 1*MB {
		t.Fatalf("block size = %d, want 1 MB", code.BlockBytes())
	}
	if code.N() != 256 {
		t.Fatalf("n = %d, want 256", code.N())
	}
	cost, err := EstimateRepair(link, code, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Download: 128 MB at 256 kB/s = 512 s (the paper's bound).
	if cost.Download != 512*time.Second {
		t.Fatalf("download = %v, want 512s", cost.Download)
	}
	// Upload: 128 blocks x 32 s = 4096 s.
	if cost.Upload != 4096*time.Second {
		t.Fatalf("upload = %v, want 4096s", cost.Upload)
	}
	// Total approximately 77 minutes ("69 + 8 = 77 minutes").
	total := cost.Total().Minutes()
	if math.Abs(total-76.8) > 0.01 {
		t.Fatalf("total = %v min, want ~76.8 (the paper's 77)", total)
	}
	// "No more than 20 repair operations should be triggered per day."
	perDay, err := maxRepairsPerDay(link, code, 128)
	if err != nil {
		t.Fatal(err)
	}
	if perDay < 18 || perDay >= 20 {
		t.Fatalf("repairs/day = %v, want in [18, 20) (paper rounds to 20)", perDay)
	}
}

func TestUploadDominates(t *testing.T) {
	// The paper's observation: upload of regenerated blocks dominates
	// the repair on asymmetric links for any d > 16 (512 s / 32 s).
	link := DSL2009()
	code := PaperCode()
	for _, d := range []int{17, 64, 128, 256} {
		cost, err := EstimateRepair(link, code, d)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Upload <= cost.Download {
			t.Fatalf("d=%d: upload %v <= download %v", d, cost.Upload, cost.Download)
		}
	}
	// And download dominates for tiny d.
	cost, _ := EstimateRepair(link, code, 1)
	if cost.Upload >= cost.Download {
		t.Fatal("single-block repair must be download-bound")
	}
}

func TestFTTHFourTimesFaster(t *testing.T) {
	slow, _ := EstimateRepair(DSL2009(), PaperCode(), 128)
	fast, _ := EstimateRepair(FTTH2009(), PaperCode(), 128)
	ratio := float64(slow.Total()) / float64(fast.Total())
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("FTTH speedup = %v, want 4x", ratio)
	}
}

func TestEstimateRepairValidation(t *testing.T) {
	code := PaperCode()
	if _, err := EstimateRepair(Link{}, code, 1); !errors.Is(err, ErrBadLink) {
		t.Fatal("zero link accepted")
	}
	if _, err := EstimateRepair(DSL2009(), Code{ArchiveBytes: 0, K: 1}, 1); err == nil {
		t.Fatal("zero archive accepted")
	}
	if _, err := EstimateRepair(DSL2009(), Code{ArchiveBytes: 1, K: 0}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := EstimateRepair(DSL2009(), code, -1); err == nil {
		t.Fatal("negative d accepted")
	}
	if _, err := EstimateRepair(DSL2009(), code, 257); err == nil {
		t.Fatal("d > n accepted")
	}
	if _, err := EstimateRepair(DSL2009(), code, 0); err != nil {
		t.Fatal("d = 0 (pure decode check) must be allowed")
	}
}

func TestBlockBytesRoundsUp(t *testing.T) {
	c := Code{ArchiveBytes: 10, K: 3, M: 1}
	if c.BlockBytes() != 4 {
		t.Fatalf("BlockBytes = %d, want ceil(10/3) = 4", c.BlockBytes())
	}
}

func TestPaperTable(t *testing.T) {
	rows, err := PaperTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[0].Cost.Total() <= rows[1].Cost.Total() {
		t.Fatal("worst case must cost more than single block")
	}
	if rows[2].Cost.Total() >= rows[0].Cost.Total() {
		t.Fatal("FTTH must beat DSL")
	}
	for _, r := range rows {
		if r.RepairsPerDay <= 0 || r.Label == "" {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestParityUploadCostAgreesWithEstimateRepair(t *testing.T) {
	code := PaperCode()
	for _, link := range []Link{DSL2009(), FTTH2009()} {
		for _, delta := range []int{0, 1, 20, 128, code.N()} {
			got, err := ParityUploadCost(code, delta, link)
			if err != nil {
				t.Fatalf("ParityUploadCost(delta=%d): %v", delta, err)
			}
			rc, err := EstimateRepair(link, code, delta)
			if err != nil {
				t.Fatalf("EstimateRepair(d=%d): %v", delta, err)
			}
			if got != rc.Upload {
				t.Fatalf("delta=%d link=%+v: ParityUploadCost=%v, EstimateRepair.Upload=%v",
					delta, link, got, rc.Upload)
			}
		}
	}
}

func TestParityUploadCostErrors(t *testing.T) {
	code := PaperCode()
	if _, err := ParityUploadCost(code, -1, DSL2009()); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := ParityUploadCost(code, code.N()+1, DSL2009()); err == nil {
		t.Fatal("delta > n accepted")
	}
	if _, err := ParityUploadCost(code, 1, Link{UploadBps: 0, DownloadBps: 1}); err == nil {
		t.Fatal("zero upload rate accepted")
	}
	if _, err := ParityUploadCost(Code{ArchiveBytes: 0, K: 1}, 1, DSL2009()); err == nil {
		t.Fatal("invalid code accepted")
	}
}
