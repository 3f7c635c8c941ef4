package p2pbackup

import (
	"bytes"
	"context"
	"testing"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
)

func TestFacadeSimulation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.NumPeers = 120
	cfg.Rounds = 200
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalIncluded == 0 {
		t.Fatal("nobody included")
	}
}

func TestFacadeDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultSimConfig()
	if cfg.NumPeers != 25000 || cfg.TotalBlocks != 256 || cfg.RepairThreshold != 148 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	obs := PaperObservers()
	if len(obs) != 5 {
		t.Fatal("observer table wrong")
	}
	profiles := PaperProfiles()
	if profiles.Len() != 4 {
		t.Fatal("profile table wrong")
	}
}

func TestFacadeEncoder(t *testing.T) {
	enc, err := NewEncoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := enc.Split([]byte("facade data round trip"))
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
}

func TestFacadeAcceptance(t *testing.T) {
	if AcceptanceFunction(0, 100, 2160) != 1 {
		t.Fatal("older requester must always be accepted")
	}
	s, err := ParseStrategy("age:L=2160")
	if err != nil || s == nil {
		t.Fatal(err)
	}
	var fifty View
	fifty.Observed.Age = 50
	if s.Score(SelectionContext{}, fifty) != 50 {
		t.Fatal("age strategy score wrong")
	}
}

func TestFacadeLifetime(t *testing.T) {
	samples := []float64{100, 150, 220, 400, 800, 1600, 130, 170, 260, 520}
	m, err := FitParetoLifetimes(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha <= 0 || m.Xm != 100 {
		t.Fatalf("fit = %+v", m)
	}
	est := AgeRank{Horizon: 90 * 24}
	if est.ExpectedRemaining(100) != 100 {
		t.Fatal("AgeRank wrong")
	}
}

func TestFacadeCostModel(t *testing.T) {
	cost, err := RepairCostEstimate(128)
	if err != nil {
		t.Fatal(err)
	}
	if min := cost.Total().Minutes(); min < 76 || min > 78 {
		t.Fatalf("repair = %v minutes, want ~77", min)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(ExperimentNames()) < 5 {
		t.Fatal("experiment registry too small")
	}
	sums, err := RunExperimentContext(context.Background(), "costmodel", ExperimentOptions{OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestFacadeLiveBackup(t *testing.T) {
	transport := NewInMemTransport(7)
	dir := NewDirectory()
	var nodes []*Node
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		nd, err := NewNode(NodeConfig{
			Name:      name,
			Age:       int64(i) * 24,
			Transport: transport,
			Store:     NewMemStore(0),
			Directory: dir,
			Params:    ArchiveParams{DataBlocks: 3, ParityBlocks: 3},
			Seed:      uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		dir.Register(name, int64(i)*24)
		nodes = append(nodes, nd)
	}
	files := []FileEntry{{Path: "x.txt", Mode: 0o644, ModTime: time.Now(), Data: []byte("facade")}}
	idx, err := nodes[0].Backup(files, "facade test")
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodes[0].Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].Data, files[0].Data) {
		t.Fatal("facade restore mismatch")
	}
	// Total-loss recovery through the facade.
	archives, err := RecoverFromNetwork(nodes[0].Name(), nodes[0].Identity(), transport, dir.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(archives) != 1 {
		t.Fatal("recovery failed")
	}
}

func TestFacadeTimeUnitsAgree(t *testing.T) {
	// The facade speaks rounds; one day is 24 rounds everywhere.
	if churn.Day != 24 || metrics.CategoryOf(3*churn.Month) != metrics.Young {
		t.Fatal("time unit drift")
	}
}
