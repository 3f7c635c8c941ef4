package p2pbackup

// The TestFacade* tests pin what README's entry points promise, through
// the packages README names: a simulation run, the paper's defaults,
// the RS round trip, the acceptance function, the Pareto fit, the
// 77-minute repair, the experiment registry and the time units. The
// live data path is pinned where it runs, in cmd/p2pbackup's tests.

import (
	"bytes"
	"context"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/erasure"
	"p2pbackup/internal/experiments"
	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

func TestFacadeSimulation(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 120
	cfg.Rounds = 200
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.FinalIncluded == 0 {
		t.Fatal("nobody included")
	}
}

func TestFacadeDefaultsMatchPaper(t *testing.T) {
	cfg := sim.DefaultConfig()
	if cfg.NumPeers != 25000 || cfg.TotalBlocks != 256 || cfg.RepairThreshold != 148 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	obs := sim.PaperObservers()
	if len(obs) != 5 {
		t.Fatal("observer table wrong")
	}
	profiles := churn.PaperProfiles()
	if profiles.Len() != 4 {
		t.Fatal("profile table wrong")
	}
}

func TestFacadeEncoder(t *testing.T) {
	enc, err := erasure.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("facade data round trip")
	shards, err := enc.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[5] = nil, nil
	if err := enc.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := enc.Join(&out, shards, len(data)); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("round trip = %q, %v", out.Bytes(), err)
	}
}

func TestFacadeAcceptance(t *testing.T) {
	if selection.AcceptanceFunction(0, 100, 2160) != 1 {
		t.Fatal("older requester must always be accepted")
	}
	s, err := selection.Parse("age:L=2160")
	if err != nil || s == nil {
		t.Fatal(err)
	}
	var fifty selection.View
	fifty.Observed.Age = 50
	if s.Score(selection.Context{}, fifty) != 50 {
		t.Fatal("age strategy score wrong")
	}
}

func TestFacadeLifetime(t *testing.T) {
	samples := []float64{100, 150, 220, 400, 800, 1600, 130, 170, 260, 520}
	m, err := lifetime.FitPareto(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha <= 0 || m.Xm != 100 {
		t.Fatalf("fit = %+v", m)
	}
	est := lifetime.AgeRank{Horizon: 90 * 24}
	if est.ExpectedRemaining(100) != 100 {
		t.Fatal("AgeRank wrong")
	}
}

func TestFacadeCostModel(t *testing.T) {
	// Section 2.2.4: replacing half of a paper-shaped archive over the
	// reference DSL link.
	cost, err := costmodel.EstimateRepair(costmodel.DSL2009(), costmodel.PaperCode(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if min := cost.Total().Minutes(); min < 76 || min > 78 {
		t.Fatalf("repair = %v minutes, want ~77", min)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(experiments.Names()) < 5 {
		t.Fatal("experiment registry too small")
	}
	sums, err := experiments.RunCtx(context.Background(), "costmodel", experiments.Options{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestFacadeTimeUnitsAgree(t *testing.T) {
	// Every package speaks rounds; one day is 24 rounds everywhere.
	if churn.Day != 24 || metrics.CategoryOf(3*churn.Month) != metrics.Young {
		t.Fatal("time unit drift")
	}
}
