package experiments

import (
	"context"
	"testing"
)

// TestRunnerShardedStress drives both parallelism layers at once: the
// Runner fans whole variants out to 8 workers while every variant's
// simulation internally fans its shardable phases out to 4 shard
// workers. Under -race this is the cross-layer interleaving check; the
// rows must still be value-identical to a fully sequential run
// (Parallelism 1, Shards 1).
func TestRunnerShardedStress(t *testing.T) {
	cfg := microConfig()
	camp, err := ThresholdCampaign(cfg, []int{9, 10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	serialCamp := camp
	rows, err := Runner{Parallelism: 1}.Run(context.Background(), serialCamp)
	if err != nil {
		t.Fatal(err)
	}

	sharded := cfg
	sharded.Shards = 4
	shardedCamp, err := ThresholdCampaign(sharded, []int{9, 10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Runner{Parallelism: 8}.Run(context.Background(), shardedCamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(rows))
	}
	sameTables(t, "fig1", rows, got)
}
