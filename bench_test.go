// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the substrates. The figure
// benches run the smoke-scale preset (600 peers, shortened horizons)
// so `go test -bench=.` finishes in minutes; use cmd/p2psim with
// -scale default|paper for full-fidelity data.
package p2pbackup

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/erasure"
	"p2pbackup/internal/experiments"
	"p2pbackup/internal/gf256"
	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/maintenance"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/storage"
)

// TestMain doubles this binary as a campaign worker: the supervised
// benchmarks re-exec os.Args[0] with P2PSIM_TEST_WORKER set, exactly as
// the experiments package's own supervisor tests do.
func TestMain(m *testing.M) {
	if os.Getenv("P2PSIM_TEST_WORKER") == "1" {
		os.Exit(experiments.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// liveHeap returns the heap in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bytesPerPeer is the live heap a warmed-up simulation of the given
// size holds beyond base (liveHeap before sim.New), per peer. Benchmarks
// report it as B/peer, so a change to any per-slot structure shows next
// to the time it buys or costs. It collects: take it before
// b.ResetTimer and report it after, since ResetTimer drops reported
// metrics.
func bytesPerPeer(base uint64, peers int) float64 {
	return float64(liveHeap()-base) / float64(peers)
}

// benchConfig is the smoke preset shortened further for benchmarking.
func benchConfig(b *testing.B) sim.Config {
	b.Helper()
	cfg, err := experiments.BaseConfig(experiments.ScaleSmoke)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Rounds = 6000
	return cfg
}

// BenchmarkTableRepairCost regenerates the section 2.2.4 cost table:
// the 77-minute worst-case repair and its feasibility bounds.
func BenchmarkTableRepairCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := costmodel.PaperTable()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-26s total %.1f min, %.1f repairs/day", r.Label, r.Cost.Total().Minutes(), r.RepairsPerDay)
			}
		}
	}
}

// BenchmarkExperiment regenerates the paper's figures and the
// single-knob ablations the way cmd/p2psim does: by id, through the
// experiment registry, at the smoke preset, writing no files. fig1 is
// the threshold sweep figures 1 and 2 are both drawn from (repairs and
// lost archives per 1000 peer-rounds by threshold and age category),
// fig3 the focal run behind figures 3 and 4 (observer repairs,
// cumulative losses); the first iteration logs each summary.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range []string{"fig1", "fig3", "ablation-strategy", "ablation-availability", "ablation-delay", "ablation-horizon"} {
		b.Run(id, func(b *testing.B) {
			opts := experiments.Options{Knobs: experiments.Knobs{Scale: experiments.ScaleSmoke, Seed: 1}, Parallelism: 2}
			for i := 0; i < b.N; i++ {
				sums, err := experiments.RunCtx(context.Background(), id, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, s := range sums {
						b.Logf("%s\n%s", s.Name, s.Text)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks

// BenchmarkSimRound measures the engine's per-round cost at smoke scale
// in steady state.
func BenchmarkSimRound(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Rounds = int64(b.N) + 2000
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run()
}

// quiescentConfig builds a population of immortal, always-online peers
// at the paper's code shape: after the initial backups complete there
// are no churn events and no maintenance work, so the per-round cost of
// the engine itself — not the protocol — is what gets measured.
func quiescentConfig(numPeers int) sim.Config {
	profiles, err := churn.NewProfileSet([]churn.Profile{
		{Name: "immortal", Proportion: 1, Availability: 1},
	})
	if err != nil {
		panic(err)
	}
	cfg := sim.DefaultConfig()
	cfg.NumPeers = numPeers
	cfg.Profiles = profiles
	cfg.AvailSpec = "always-online"
	return cfg
}

// BenchmarkQuiescentRound measures the per-round engine cost on a
// quiescent paper-scale population across population sizes, after the
// initial uploads have drained. An event-driven core must show
// per-round cost scaling with the number of due events (here ~zero),
// not with NumPeers; the historical scan engine measured 60µs / 405µs
// / 3.3ms per quiescent round at 5k / 25k / 100k peers on the same
// harness — linear in population — where the calendar-queue engine is
// flat at tens of nanoseconds.
func BenchmarkQuiescentRound(b *testing.B) {
	for _, n := range []int{5000, 25000, 100000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			cfg := quiescentConfig(n)
			const warmup = 16 // initial uploads complete in ~3 rounds
			cfg.Rounds = int64(b.N) + warmup
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				s.StepRound()
			}
			b.ResetTimer()
			for s.StepRound() {
			}
		})
	}
}

// BenchmarkChurnRound measures the per-round engine cost under the
// paper's real churn mix at paper scale: the cost is dominated by
// genuine events (session flips, deaths, repairs), which is the floor
// an event-driven engine cannot go below.
//
// The warmup runs past the monitoring window (AcceptHorizon, 2160
// rounds): by then the availability histories, calendar buckets and
// candidate pools have reached their high-water marks and repair
// traffic has ramped to its stationary rate, so the timed section
// measures the true steady state — including its zero-allocation
// property (b.ReportAllocs), which shorter warmups mask with one-time
// capacity growth. (The pre-PR-5 500-round warmup sat in the cheaper
// ramp-up regime; the PR 4 and PR 5 churn-round numbers are not
// directly comparable for that reason on top of the engine changes.)
//
// B/peer is the live heap per slot after the warmup. Parent → PR 16 on
// the 2-core reference box at -benchtime 2000x: 15.0 → 12.8 ms/op,
// 23809 → 8000 B/peer, 0 allocs/op on both and 1655 → 5362 B/op. The
// bytes are candidate pools: a repair that stalls below k keeps
// gathering candidates until it can decode, so its pool grows to 3 and
// then 6 KiB (less than one such allocation per round), where the
// parent had a 6 KiB pool and a 5 KiB dedup map reserved for every
// slot; the parent's own bytes were a few history rings growing to
// 24 KiB, which now grow to 8.
//
// The upload pick by score group, the calendar's stack of recycled
// nodes and the age policy's score table, parent → change, both built
// in one session on the 2-core reference box, ten interleaved pairs at
// -benchtime 2000x, medians: 3.28 → 2.97 ms/op (parent IQR 0.16, ten
// pairs won), 3689 → 3693 B/peer, 5534 → 5649 B/op.
//
// The shards=2 arm times the engine on both cores. Session flips staged
// in the walk and committed in one pass by the merge, with the wake
// hook bound once, parent → change, both built in one session on the
// 2-core reference box, ten interleaved pairs at -benchtime 2000x,
// medians [quartiles]: shards=1 3.66 [3.28, 4.11] → 3.56 [3.14, 3.95]
// ms/op (6 pairs won: at one shard the flip loop only moves from the
// merge to the walk), 3693 → 3698 B/peer, 5649 → 5633 B/op, 1 → 0
// allocs/op; shards=2 2.46 [2.33, 2.98] → 2.19 [2.05, 2.36] ms/op (8
// pairs won), 3700 → 3709 B/peer, about 6500 B/op on both, 7 → 6
// allocs/op (the rest are the goroutines eachShard starts).
func BenchmarkChurnRound(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := sim.DefaultConfig() // the paper's 25,000 peers
			cfg.Shards = shards
			const warmup = 2600
			cfg.Rounds = int64(b.N) + warmup
			base := liveHeap()
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				s.StepRound()
			}
			perPeer := bytesPerPeer(base, cfg.NumPeers)
			b.ReportAllocs()
			b.ResetTimer()
			b.ReportMetric(perPeer, "B/peer")
			for s.StepRound() {
			}
		})
	}
}

// BenchmarkAdaptiveChurnRound measures what the adaptive redundancy
// layer adds to the steady-state churn round at paper scale: the same
// population and warmup as BenchmarkChurnRound, run under the fixed
// policy (the engine's historical fast path — the redundancy phase is
// never entered) and under the adaptive default (one policy evaluation
// per archive per day plus the grow/shrink traffic it decides). The
// fixed arm must match BenchmarkChurnRound within noise; the adaptive
// arm's delta is the whole subsystem's runtime bill: ~1 042 evaluations
// a round (25 000 archives / eval 24) and the placements they cause.
// On the 2-core reference box that is 16.3 ms fixed against 26.7 ms
// adaptive, 1.6x — about 10 us per evaluation, 4 of them the sizing
// (BenchmarkAdaptiveTarget). It was 10x (173 ms at PR 10) while
// Adaptive.Target scanned n linearly and recomputed every Lgamma at
// every step; a ratio far above 2x now means the kernel has regressed.
func BenchmarkAdaptiveChurnRound(b *testing.B) {
	for _, policy := range []string{"fixed", "adaptive"} {
		b.Run("policy="+policy, func(b *testing.B) {
			cfg := sim.DefaultConfig() // the paper's 25,000 peers
			cfg.RedundancySpec = policy
			const warmup = 2600
			cfg.Rounds = int64(b.N) + warmup
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				s.StepRound()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for s.StepRound() {
			}
		})
	}
}

// BenchmarkDurability measures the binomial tail behind every adaptive
// decision at the paper's full shape — Durability(256, 148, p), 109
// terms — over the availabilities the harness's
// redundancy.durability_us probe uses. Allocation-free: the ln i! table
// is built once, at package initialisation.
func BenchmarkDurability(b *testing.B) {
	tail := func(i int) float64 { return redundancy.Durability(256, 148, 0.50+0.05*float64(i%10)) }
	if a := testing.AllocsPerRun(100, func() { sinkFloat += tail(3) }); a != 0 {
		b.Fatalf("Durability allocates %v objects per call, want 0", a)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat += tail(i)
	}
}

// BenchmarkAdaptiveTarget measures one adaptive sizing decision: the
// default policy bound at the paper's shape (128, 148, 256), a
// full-size archive, availability 0.50...0.95 — the harness's
// redundancy.target_us probe. One decision is two binary searches of
// the availability bands Bind built and, at most of these availabilities,
// no tail at all: 23 ns, median of ten pairs interleaved with the
// bisection of [148, 256] it replaced (about eight tails, 1 059 ns), on
// a 2-core Xeon VM. None of it allocates.
func BenchmarkAdaptiveTarget(b *testing.B) {
	pol, err := redundancy.Parse("adaptive")
	if err != nil {
		b.Fatal(err)
	}
	if pol, err = pol.Bind(128, 148, 256); err != nil {
		b.Fatal(err)
	}
	target := func(i int) int {
		return pol.Target(redundancy.Observation{Round: 2160, Current: 256, DataBlocks: 128,
			Availability: 0.50 + 0.05*float64(i%10)})
	}
	if a := testing.AllocsPerRun(100, func() { sinkFloat += float64(target(7)) }); a != 0 {
		b.Fatalf("Target allocates %v objects per call, want 0", a)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat += float64(target(i))
	}
}

// sinkFloat keeps the kernels above from being optimised away.
var sinkFloat float64

// BenchmarkShardedChurnRound measures what a second core buys: steady-
// state rounds under the paper's churn mix at large populations, on one
// shard (the walk and the plan on the calling goroutine) and on one
// shard per available CPU. The code shape is thin (32/16, short
// horizon) so the 1M-peer population fits in CI memory; the short
// warmup still clears the shortened monitoring window. Results are
// bit-equal at every shard count, so the deltas are pure speedup — on a
// single-core runner the two rows are the same row. The 1M populations
// are skipped under -short.
func BenchmarkShardedChurnRound(b *testing.B) {
	shardCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		shardCounts = append(shardCounts, p)
	}
	for _, peers := range []int{100000, 1000000} {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("peers=%d/shards=%d", peers, shards), func(b *testing.B) {
				if testing.Short() && peers > 100000 {
					b.Skip("1M-peer population skipped with -short")
				}
				cfg := sim.DefaultConfig()
				cfg.NumPeers = peers
				cfg.TotalBlocks = 32
				cfg.DataBlocks = 16
				cfg.RepairThreshold = 20
				cfg.Quota = 96
				cfg.PoolSamplePerRound = 32
				cfg.AcceptHorizon = 72
				cfg.Shards = shards
				const warmup = 120 // past the shortened monitoring window
				cfg.Rounds = int64(b.N) + warmup
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < warmup; i++ {
					s.StepRound()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for s.StepRound() {
				}
			})
		}
	}
}

// BenchmarkTransferRound measures the per-round engine cost with the
// transfer scheduler engaged: the paper's churn mix at paper scale over
// the skewed bandwidth population, so every repair is an in-flight
// metered upload (enqueue, uplink booking, completion events,
// suspend/resume on churn). The warmup mirrors BenchmarkChurnRound so
// the timed section is the same steady state plus the transfer load.
func BenchmarkTransferRound(b *testing.B) {
	cfg := sim.DefaultConfig() // the paper's 25,000 peers
	cfg.BandwidthSpec = "skewed"
	const warmup = 2600
	cfg.Rounds = int64(b.N) + warmup
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		s.StepRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for s.StepRound() {
	}
}

// BenchmarkFlashCrowdRound measures the per-round cost under sustained
// restore pressure: recurring regional kill shocks with a restore crowd
// demanding archives back every week, over DSL-class links. This is the
// engine's worst realistic regime — the completion heap, the restore
// table and the suspend/resume paths all stay hot.
func BenchmarkFlashCrowdRound(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.BandwidthSpec = "dsl"
	cfg.Shocks = []sim.ShockSpec{
		{Name: "attrition", Rate: 1.0 / float64(churn.Week), Fraction: 0.2, Regions: 8, Kill: true},
	}
	const warmup = 2600
	cfg.Rounds = int64(b.N) + warmup
	for round := int64(warmup) / 2; round < cfg.Rounds; round += churn.Week {
		cfg.Restores = append(cfg.Restores, sim.RestoreSpec{
			Name: "crowd", Round: round, Fraction: 0.3,
		})
	}
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		s.StepRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for s.StepRound() {
	}
}

// supervisedBenchSpec is a one-variant micro campaign for the process
// supervision benchmarks: small enough that the worker process's spawn,
// JSON handshake and result snapshot are a visible share of the cost.
func supervisedBenchSpec() experiments.CampaignSpec {
	return experiments.CampaignSpec{
		Kind:   "repair-delay",
		Knobs:  experiments.Knobs{Scale: experiments.ScaleSmoke, Seed: 3},
		Delays: []int{0},
		Overrides: &experiments.ConfigOverrides{
			NumPeers: 100, Rounds: 300, TotalBlocks: 16, DataBlocks: 8,
			RepairThreshold: 10, Quota: 48, PoolSamplePerRound: 32, AcceptHorizon: 48,
		},
	}
}

// BenchmarkSupervisedVariant measures one campaign variant executed
// by the Runner's pool through the fault-tolerant process supervisor:
// worker spawn, spec handshake, the simulation itself, and the JSON
// result snapshot crossing the pipe. Against BenchmarkInProcessVariant the delta is the
// full isolation overhead a supervised campaign pays per variant. The
// worker is this test binary with -worker appended, as p2psim re-execs
// itself; the environment variable sends it to TestMain's worker branch
// before any flag is parsed.
func BenchmarkSupervisedVariant(b *testing.B) {
	b.Setenv("P2PSIM_TEST_WORKER", "1")
	spec := supervisedBenchSpec()
	camp, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.Runner{Parallelism: 1, Supervisor: &experiments.Supervisor{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := r.Run(context.Background(), camp)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("got %d rows, want 1", len(rows))
		}
	}
}

// BenchmarkInProcessVariant runs the identical variant through the same
// entry point, Runner.Run, in this process: the baseline the supervisor's
// isolation overhead is measured against.
func BenchmarkInProcessVariant(b *testing.B) {
	spec := supervisedBenchSpec()
	camp, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.Runner{Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := r.Run(context.Background(), camp)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("got %d rows, want 1", len(rows))
		}
	}
}

// rsBlockSizes are the shard sizes the Reed-Solomon benchmarks time:
// 4 KiB, where the kernel's per-chunk table builds weigh most, and
// 384 KiB, the shard the live-backup-restore workload's 48 MiB archive
// really produces at k = 128.
var rsBlockSizes = []int{4 << 10, 384 << 10}

// rsShards returns 256 shards of the given size, the first 128 filled
// from the seed.
func rsShards(seed uint64, blockSize int) [][]byte {
	r := rng.New(seed)
	shards := make([][]byte, 256)
	for i := range shards {
		shards[i] = make([]byte, blockSize)
		if i < 128 {
			for j := range shards[i] {
				shards[i][j] = byte(r.Uint64())
			}
		}
	}
	return shards
}

// BenchmarkRSEncode measures Reed-Solomon encoding throughput at the
// paper's 128+128 shape. Measured on the 2-core reference box, scalar
// MulSlice/MulAddSlice loop (the commit before MulRows) -> MulRows:
// 4KiB 48 -> 3.2 ms/op (10.9 -> 164 MB/s), 384KiB 5.74 -> 0.31 s/op
// (8.8 -> 164 MB/s); 0 -> 1 allocation per call (the row views), the
// same at either size.
func BenchmarkRSEncode(b *testing.B) {
	enc, err := erasure.New(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	for _, blockSize := range rsBlockSizes {
		b.Run(fmt.Sprintf("%dKiB", blockSize>>10), func(b *testing.B) {
			shards := rsShards(1, blockSize)
			b.SetBytes(int64(128 * blockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRSReconstruct measures worst-case reconstruction (128 of 256
// shards lost; the 128x128 inversion is cached after the first
// iteration). Measured as BenchmarkRSEncode: 4KiB 43 -> 3.7 ms/op,
// 384KiB 6.3 -> 0.35 s/op, the rebuilt shards' allocation included.
func BenchmarkRSReconstruct(b *testing.B) {
	enc, err := erasure.New(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	for _, blockSize := range rsBlockSizes {
		b.Run(fmt.Sprintf("%dKiB", blockSize>>10), func(b *testing.B) {
			orig := rsShards(2, blockSize)
			if err := enc.Encode(orig); err != nil {
				b.Fatal(err)
			}
			lost := rng.New(2).Perm(256)[:128]
			b.SetBytes(int64(128 * blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := make([][]byte, 256)
				copy(shards, orig)
				for _, j := range lost {
					shards[j] = nil
				}
				b.StartTimer()
				if err := enc.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulRows measures the wide-table GF(2^8) kernel alone on a
// dense 128x128 coefficient matrix: one chunk per shard (8KiB), where
// every table is built for a single pass, and the live workload's
// 384KiB. Measured on the 2-core reference box: 8KiB 6.5 ms/op
// (161 MB/s of input), 384KiB 0.32 s/op (159 MB/s), 0 allocs/op; the
// same product through MulSlice + MulAddSlice ran at 8.8 MB/s.
func BenchmarkMulRows(b *testing.B) {
	for _, blockSize := range []int{8 << 10, 384 << 10} {
		b.Run(fmt.Sprintf("%dKiB", blockSize>>10), func(b *testing.B) {
			shards := rsShards(4, blockSize)
			coef := make([][]byte, 128)
			r := rng.New(5)
			for i := range coef {
				coef[i] = make([]byte, 128)
				for j := range coef[i] {
					coef[i][j] = byte(r.Uint64())
				}
			}
			b.SetBytes(int64(128 * blockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.MulRows(coef, shards[:128], shards[128:])
			}
		})
	}
}

// liveTree writes a seeded 16 MiB tree, a few large files and many small
// ones like the harness's live workload, under a fresh directory.
func liveTree(b *testing.B) (root string, size int64) {
	b.Helper()
	root = b.TempDir()
	r := rng.New(6)
	for i := 0; i < 10+96; i++ {
		n, name := 1<<20, fmt.Sprintf("big/f%03d.bin", i)
		if i >= 10 {
			n, name = 64<<10, fmt.Sprintf("small/f%03d.bin", i)
		}
		data := make([]byte, n)
		for j := 0; j < n; j += 8 {
			binary.LittleEndian.PutUint64(data[j:], r.Uint64())
		}
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
		size += int64(n)
	}
	return root, size
}

// BenchmarkLiveBackup measures the backup half of the live data path at
// the paper's 128+128 on a 16 MiB tree: list, tar, seal, tag and encode
// stripe by stripe, every block hash, the chunks dropped where a store
// would take them (no disk write, no key generation). B/op is the number
// to watch: it is everything a backup allocates, and it no longer grows
// with the tree. Measured on the 2-core reference box, parent (one
// contiguous k-th of the archive per block, parity kept to the end) ->
// stripes, three alternating runs of 5 iterations, medians: 0.165 ->
// 0.148 s/op (102 -> 113 MB/s), 19.7 -> 2.7 MB/op (1.2 -> 0.16 times the
// tree: one stripe of 256 chunks and what tar and the file reader use).
func BenchmarkLiveBackup(b *testing.B) {
	root, size := liveTree(b)
	id, err := backup.NewIdentity()
	if err != nil {
		b.Fatal(err)
	}
	owner := func() (*backup.Identity, error) { return id, nil }
	drop := func(int, []byte) error { return nil }
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := backup.EncodeDir(backup.DefaultParams(), owner, root, "", drop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveRestore measures the restore half in its worst case, all
// 128 data blocks gone: DecodeDir from the parity blocks, every stripe
// reconstructed, authenticated, decrypted and written out as files.
// B/op is what a restore allocates beyond the blocks it reads. Measured
// as BenchmarkLiveBackup, the parent's DecodeArchive + UnpackFiles (no
// disk write) -> DecodeDir (files written, a fifth of the time in write
// calls): 0.146 -> 0.202 s/op, 17.4 -> 3.1 MB/op (1.0 -> 0.19 times the
// tree).
func BenchmarkLiveRestore(b *testing.B) {
	root, size := liveTree(b)
	id, err := backup.NewIdentity()
	if err != nil {
		b.Fatal(err)
	}
	parity := make([][]byte, 256)
	owner := func() (*backup.Identity, error) { return id, nil }
	m, _, _, err := backup.EncodeDir(backup.DefaultParams(), owner, root, "", func(i int, chunk []byte) error {
		if i >= 128 {
			parity[i] = append(parity[i], chunk...)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	fetch := func(i int, _ storage.BlockID) io.ReaderAt {
		if parity[i] == nil {
			return nil
		}
		return bytes.NewReader(parity[i])
	}
	dst := b.TempDir()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := backup.DecodeDir(m, id, dst, fetch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGF256MulAddSlice measures the scalar GF(2^8) fused
// multiply-add, the inner loop of Matrix.Mul and Invert (and, before
// MulRows, of all coding).
func BenchmarkGF256MulAddSlice(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	r := rng.New(3)
	for i := range src {
		src[i] = byte(r.Uint64())
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf256.MulAddSlice(byte(i)|1, src, dst)
	}
}

// BenchmarkAcceptanceFunction measures the paper's f(p1, p2).
func BenchmarkAcceptanceFunction(b *testing.B) {
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += selection.AcceptanceFunction(int64(i%3000), int64((i*7)%3000), 2160)
	}
	_ = acc
}

// benchViews builds a deterministic candidate set with monitored
// histories, the input shape of the Score/AgreeCtx hot path.
func benchViews(b *testing.B, n int) []selection.View {
	b.Helper()
	views := make([]selection.View, n)
	for i := range views {
		h := monitor.NewIntervalHistory(2160)
		online := true
		for round := int64(0); round < 2160; round += int64(20 + i%80) {
			if err := h.RecordTransition(round, online); err != nil {
				b.Fatal(err)
			}
			online = !online
		}
		views[i] = selection.View{
			Observed: selection.Observed{Age: int64(i * 37 % 5000), History: h},
			Oracle:   selection.Oracle{Availability: float64(i%100) / 100, Remaining: int64(i * 13 % 9000)},
		}
	}
	return views
}

// BenchmarkPolicyScore measures the ranking hot path of every
// registered strategy spec: one Score call per pooled candidate.
func BenchmarkPolicyScore(b *testing.B) {
	views := benchViews(b, 256)
	for _, spec := range selection.Names() {
		pol, err := selection.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc += pol.Score(selection.Context{Round: 2160}, views[i%len(views)])
			}
			_ = acc
		})
	}
}

// BenchmarkPolicyAgree measures the reference mutual-acceptance path
// (the acceptance function both directions plus the rng draws) for the
// probabilistic age strategy and one accept-all baseline, whose
// certain directions draw nothing.
func BenchmarkPolicyAgree(b *testing.B) {
	views := benchViews(b, 256)
	for _, spec := range []string{"age", "random"} {
		pol, err := selection.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			r := rng.New(11)
			agreed := 0
			for i := 0; i < b.N; i++ {
				if selection.AgreeCtx(r, pol, selection.Context{Round: 2160},
					views[i%len(views)], views[(i*7+3)%len(views)]) {
					agreed++
				}
			}
			_ = agreed
		})
	}
}

// BenchmarkEstimatorExpectedRemaining measures the estimators behind
// the estimator:* specs at a mix of ages.
func BenchmarkEstimatorExpectedRemaining(b *testing.B) {
	empirical, err := lifetime.NewEmpiricalModel(func() []float64 {
		r := rng.New(5)
		s := make([]float64, 512)
		for i := range s {
			s[i] = 720 + 30000*r.Float64()
		}
		return s
	}())
	if err != nil {
		b.Fatal(err)
	}
	ests := []struct {
		name string
		est  lifetime.Estimator
	}{
		{"age-rank", lifetime.AgeRank{Horizon: 2160}},
		{"pareto", lifetime.ParetoModel{Xm: 1, Alpha: 1.5}},
		{"empirical", empirical},
	}
	for _, e := range ests {
		b.Run(e.name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc += e.est.ExpectedRemaining(float64(i * 31 % 40000))
			}
			_ = acc
		})
	}
}

// uptimeHistory builds an IntervalHistory with the given number of
// in-window transitions (alternating sessions ending at round 2160).
func uptimeHistory(b *testing.B, transitions int) *monitor.IntervalHistory {
	b.Helper()
	const window = 2160
	h := monitor.NewIntervalHistory(window)
	step := int64(window / (transitions + 1))
	if step < 1 {
		step = 1
	}
	online := true
	for round := int64(0); round < window; round += step {
		if err := h.RecordTransition(round, online); err != nil {
			b.Fatal(err)
		}
		online = !online
	}
	return h
}

// BenchmarkUptime measures the windowed availability query across
// transition densities: the prefix-summed binary search must stay flat
// where the old segment walk grew linearly. Reported with -benchmem:
// queries are read-only and must not allocate. Every query's now end
// lies past the newest transition, as the simulator's do, and is
// answered without a search: medians of ten interleaved pairs against
// searching both ends, 2-core Xeon VM, 15.9 → 11.3 ns at 4 transitions,
// 24.2 → 14.1 at 32, 36.1 → 21.1 at 256 and 75.8 → 52.6 at 2048.
func BenchmarkUptime(b *testing.B) {
	for _, transitions := range []int{4, 32, 256, 2048} {
		h := uptimeHistory(b, transitions)
		b.Run(fmt.Sprintf("interval/transitions=%d", transitions), func(b *testing.B) {
			b.ReportAllocs()
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc += h.Uptime(2160, int64(1+i%2160))
			}
			_ = acc
		})
	}
}

// BenchmarkMaintainerStep measures one maintenance step for a peer in
// repair (pool building plus placement). B/peer is the live heap per
// slot of the 600-peer smoke population it steps in: 19215 before
// PR 16, 6115 since (the step itself is the 4-5 ns trigger check on
// either side).
func BenchmarkMaintainerStep(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Rounds = 500
	base := liveHeap()
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	m := s.Maintainer()
	r := rng.New(9)
	perPeer := bytesPerPeer(base, cfg.NumPeers)
	b.ResetTimer()
	b.ReportMetric(perPeer, "B/peer")
	for i := 0; i < b.N; i++ {
		// Steps on a healthy peer measure the trigger check; the mix of
		// peers includes repairing ones.
		m.Step(r, 0)
		_ = maintenance.OutcomeNone
	}
}

// poolBenchEnv is a maintenance.Env at round 0 over n candidate slots
// that joined at the given rounds, each the negative of an age.
type poolBenchEnv struct {
	n     int
	joins []int64
}

// newPoolBenchEnv returns the Env over n slots with the given ages (nil:
// all equally old, so every online non-partner is an acceptable
// candidate and acceptance draws nothing).
func newPoolBenchEnv(n int, ages []int64) poolBenchEnv {
	e := poolBenchEnv{n: n, joins: make([]int64, n)}
	for i := range e.joins {
		e.joins[i] = -10000
		if ages != nil {
			e.joins[i] = -ages[i]
		}
	}
	return e
}

func (e poolBenchEnv) View(id overlay.PeerID) selection.View {
	return selection.View{Observed: selection.Observed{Age: -e.joins[id]}}
}
func (e poolBenchEnv) Joins() []int64  { return e.joins }
func (e poolBenchEnv) Population() int { return e.n }
func (e poolBenchEnv) Round() int64    { return 0 }

// poolBenchXfer is a maintenance.Transfers with quota reserved on some
// hosts and nothing in flight from the benchmark's owner.
type poolBenchXfer struct{ reserved []int32 }

func (x poolBenchXfer) BeginUpload(overlay.PeerID, overlay.Ref) {}
func (x poolBenchXfer) Inflight(overlay.PeerID) int             { return 0 }
func (x poolBenchXfer) UploadSlots(overlay.PeerID) int          { return 4 }
func (x poolBenchXfer) Reserved(host overlay.PeerID) int        { return int(x.reserved[host]) }
func (x poolBenchXfer) PendingHosts(_ overlay.PeerID, buf []overlay.PeerID) []overlay.PeerID {
	return buf
}

// BenchmarkRefreshPool measures one candidate-pool refresh at the
// paper's parameters (n = 256, 128 draws per round).
//
// pooled=N: the pool already holds 0, 64 or 255 candidates and the
// owner's archive is undecodable, so a Step is exactly one refresh —
// prune the pool, then 128 draws that the draw-free screen rejects every
// one of: as the owner itself, an offline peer or a partner, and one
// draw in five at 64 and one in two at 255 as pooled already. That last
// rejection was a map lookup per draw until PR 16 and is one word of a
// mark array since. Parent → PR 16 on the 2-core reference box,
// -benchtime 20000x, medians of 3: pooled=0 2.12 → 1.65, pooled=64
// 3.14 → 1.85, pooled=255 3.52 → 1.80 µs/op, 0 allocs/op.
//
// accepting: what the screen lets through. The owner holds a full
// archive on 256 of the slots and one slot in three is offline; every
// iteration empties its pool (Reset) and refreshes it once (the Step
// finds no block missing and places nothing), so of 128 draws some are
// screened out, the rest negotiate — under "age" by the paper's
// acceptance function, over ages on both sides of L, under "random"
// with no negotiation at all — and the accepted are scored and pooled.
// Instant and metered (quota reservations subtracted per candidate), in
// a cache-resident population and a paper-scale one. ns/draw is the
// whole iteration over its 128 draws; pooled/op (metered only: there the
// pool outlives the step) says how many of them were accepted. The loop
// that screened with Ledger.CanHost and negotiated on two ages through
// an interface (parent) → the loop with the age table, the one-branch
// screen and the rng state in registers, both built in one session on
// the 2-core reference box while other work loaded it (the parent reads
// 1.5–2× what an idle box gave it), alternating, -benchtime 20000x,
// medians of 5, ns/draw:
//
//	age     slots=600    instant 57.5 → 39.6   transfers 63.0 → 43.3
//	age     slots=25000  instant 70.6 → 62.3   transfers 90.8 → 76.6
//	random  slots=600    instant 43.2 → 34.6   transfers 49.2 → 38.2
//	random  slots=25000  instant 51.2 → 56.4   transfers 55.7 → 57.9
//
// The random rows at 25 000 slots are unresolved: their runs spread over
// ±10 ns on both sides, and eight more pairs at GOMAXPROCS=1 gave
// medians 53.2 → 56.1 and 61.7 → 62.1. (pooled=N in the same runs: 3.58
// → 1.90, 3.83 → 2.01, 4.56 → 2.90 µs/op.) 0 allocs/op throughout.
//
// Scoring an accepted candidate from the policy's score table (age,
// random) instead of through a View and Score, parent → change, both
// built in one session on the 2-core reference box when it was quiet,
// ten interleaved pairs, -benchtime 20000x, medians, ns/draw (every
// pair won by the change):
//
//	age     slots=600    instant 13.98 → 12.90   transfers 15.41 → 14.39
//	age     slots=25000  instant 24.33 → 22.07   transfers 27.36 → 25.09
//	random  slots=600    instant 11.18 →  9.61   transfers 12.45 → 11.09
//	random  slots=25000  instant 18.52 → 14.32   transfers 21.60 → 17.12
//
// The View read a random slot's oracle fields, a cache miss at 25 000
// slots, for a score the random policy never looks at. The pooled=N
// rows accept nothing and read 0.442 → 0.463, 0.536 → 0.577 and 0.847
// → 0.937 µs/op, every pair lost. That is where the code sits, not what
// it does: refreshPool moved from an address 32 bytes past a 64-byte
// boundary to one on it, and the parent's own refreshPool linked at the
// new address (the scored line reverted, nothing else) read the same
// 0.47, 0.57 and 0.93.
func BenchmarkRefreshPool(b *testing.B) {
	params := maintenance.Params{
		TotalBlocks: 256, DataBlocks: 128, RepairThreshold: 148,
		PoolSamplePerRound: 128, UploadBudgetPerRound: 128,
	}
	for _, pooled := range []int{0, 64, 255} {
		b.Run(fmt.Sprintf("pooled=%d", pooled), func(b *testing.B) {
			const owner, hosts = 0, 256
			peers := 1 + hosts + pooled
			led := overlay.NewLedger(peers, 384)
			age, err := selection.Parse("age:L=2160")
			if err != nil {
				b.Fatal(err)
			}
			m := maintenance.New(params, led, overlay.NewTable(peers), age, newPoolBenchEnv(peers, nil))
			r := rng.New(9)
			// Upload onto the hosts alone, then take the archive below k
			// and let the candidates in.
			for id := 1 + hosts; id < peers; id++ {
				led.SetOnline(overlay.PeerID(id), false)
			}
			for !m.Included(owner) {
				m.Step(r, owner)
			}
			for id := 1; id <= hosts; id++ {
				led.SetOnline(overlay.PeerID(id), id > 140)
			}
			for id := 1 + hosts; id < peers; id++ {
				led.SetOnline(overlay.PeerID(id), true)
			}
			for i := 0; m.PoolSize(owner) < pooled; i++ {
				if m.Step(r, owner).Outcome != maintenance.OutcomeStalled || i > 10000 {
					b.Fatalf("pool stuck at %d of %d candidates", m.PoolSize(owner), pooled)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(r, owner)
			}
		})
	}
	for _, spec := range []string{"age", "random"} {
		for _, slots := range []int{600, 25000} {
			for _, transfers := range []bool{false, true} {
				mode := "instant"
				if transfers {
					mode = "transfers"
				}
				b.Run(fmt.Sprintf("accepting/policy=%s/slots=%d/%s", spec, slots, mode), func(b *testing.B) {
					pol, err := selection.Parse(spec)
					if err != nil {
						b.Fatal(err)
					}
					const owner = 0
					ages := make([]int64, slots)
					xfer := poolBenchXfer{reserved: make([]int32, slots)}
					for i := range ages {
						ages[i] = int64(i * 37 % 5000)
						xfer.reserved[i] = int32(i % 4)
					}
					ages[owner] = 1080 // L/2: it refuses the young, the old refuse it
					env := newPoolBenchEnv(slots, ages)
					led := overlay.NewLedger(slots, 384)
					m := maintenance.New(params, led, overlay.NewTable(slots), pol, env)
					r := rng.New(9)
					for !m.Included(owner) {
						m.Step(r, owner)
					}
					if transfers {
						m.SetTransfers(xfer)
					}
					for id := 1; id < slots; id += 3 {
						led.SetOnline(overlay.PeerID(id), false)
					}
					pooled := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// A fresh occupant's first step on an archive that
						// is already whole: one refresh, no placement.
						m.Reset(owner)
						m.Step(r, owner)
						pooled += m.PoolSize(owner)
					}
					draws := float64(b.N * params.PoolSamplePerRound)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/draws, "ns/draw")
					if transfers {
						// An instant step that finds the archive whole ends
						// the episode, and with it the pool it just filled.
						b.ReportMetric(float64(pooled)/float64(b.N), "pooled/op")
					}
				})
			}
		}
	}
}

// BenchmarkLedgerSessionFlip measures the cost of one session
// transition with a realistic reverse-index size.
func BenchmarkLedgerSessionFlip(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Rounds = 500
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	led := s.Ledger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led.SetOnline(5, i%2 == 0)
	}
}

// BenchmarkLedgerSessionFlipSpread measures a session transition the
// way the merge pays for it. BenchmarkLedgerSessionFlip flips one host,
// whose lists and counters stay in L1; here a paper-shape ledger (25 000
// peers, 218 blocks placed per owner, slabs reserved for n = 256 and
// quota 384 as the engine reserves them, a watcher at the default
// repair threshold) has its hosts flipped in rounds of 2 100, each a
// fresh random host set in ascending order, as the merge applies a
// round's flips. Every flip loads a reverse list from a new place in
// the 61 MiB of slabs and visits about 218 owners' counters.
func BenchmarkLedgerSessionFlipSpread(b *testing.B) {
	const peers, blocks, perRound, rounds = 25000, 218, 2100, 48
	led := overlay.NewLedger(peers, 384)
	led.Reserve(256, 384)
	led.Watch(noopWatcher{}, 148, 128)
	r := rng.New(11)
	for owner := overlay.PeerID(0); owner < peers; owner++ {
		for placed := 0; placed < blocks; {
			if led.Place(owner, overlay.PeerID(r.Intn(peers))) == nil {
				placed++
			}
		}
	}
	all := make([]overlay.PeerID, peers)
	for i := range all {
		all[i] = overlay.PeerID(i)
	}
	flips := make([]overlay.PeerID, 0, rounds*perRound)
	for range rounds {
		r.Shuffle(peers, func(i, j int) { all[i], all[j] = all[j], all[i] })
		round := slices.Clone(all[:perRound])
		slices.Sort(round)
		flips = append(flips, round...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := flips[i%len(flips)]
		led.SetOnline(h, !led.Online(h))
	}
}

// noopWatcher takes the ledger's threshold crossings and does nothing.
type noopWatcher struct{}

func (noopWatcher) VisibleBelow(overlay.PeerID) {}
func (noopWatcher) AliveBelow(overlay.PeerID)   {}

// BenchmarkChurnSessionSampling measures availability session draws.
func BenchmarkChurnSessionSampling(b *testing.B) {
	m, err := churn.ParseAvailability("session")
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(4)
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += m.SessionLength(r, 0.75, i%2 == 0, int64(i))
	}
	_ = acc
}

var sinkRates [metrics.NumCategories]float64

// BenchmarkFullSmokeRun measures one complete smoke-scale focal run
// end to end (the unit of all figure benches).
func BenchmarkFullSmokeRun(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Rounds = 3000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := p2prun(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			sinkRates[c] = res.Collector.RepairRatePer1000(c)
		}
	}
}

func p2prun(cfg sim.Config) (*sim.Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

func ExampleAcceptanceFunction() {
	// An elder (90 days) accepting a newborn: the floor 1/L.
	fmt.Printf("%.6f\n", selection.AcceptanceFunction(90*24, 0, 90*24))
	// A newborn always accepts an elder.
	fmt.Printf("%.0f\n", selection.AcceptanceFunction(0, 90*24, 90*24))
	// Output:
	// 0.000463
	// 1
}
