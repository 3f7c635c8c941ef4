package sim

// Sharded execution (Config.Shards >= 2): the slot space is cut into
// Shards contiguous ranges and the engine's draw-free work fans out
// across one worker goroutine per shard, with a barrier before the
// next canonical phase. Three phases shard:
//
//   - availability-history application: the churn walk logs every
//     history mutation (session transitions, identity resets) instead
//     of applying it inline, and the log is applied per shard right
//     after the walk — each worker owns its slots' histories
//     exclusively, and per-slot ops keep their log order;
//   - view/score cache warming: when the round's actor set will probe
//     a large fraction of the population, every slot's selection view
//     (and, for pure policies, its score) is materialised in parallel
//     before the maintenance phase reads them through the per-round
//     memos;
//   - the end-of-run inclusion scan.
//
// The v2 rng-order invariant (the sharded extension of the package
// comment's v1 invariant): sharded work must be draw-free, and must
// either be partitioned by slot or merged in ascending slot order.
// Every rng draw that can reach canonical state stays on the single
// canonical stream, in the v1 order — which is what makes S=1
// reproduce the pre-shard goldens bit for bit and S=k reproduce S=1
// for every k. The per-shard streams below (rng.Derive of the run seed
// and the shard index) are scratch: shard-local randomness for work
// whose outcome is discarded or order-insensitive. No scratch draw may
// influence canonical state; the shard-equivalence digests in
// shard_test.go hold the engine to that.
//
// Why the walk and the maintenance phase stay canonical: the v1 walk
// interleaves draws with order-dependent shared reads (a session flip
// at slot j changes what slot i > j observes, watcher crossings grow
// the same round's walk membership), and maintenance contends for host
// quota in shuffled order. Parallelising either would change
// trajectories, which the goldens forbid. The v3 engine (Config.Walk =
// WalkV3, walk3.go) removes that blocker by changing the invariant
// itself — per-slot rng streams and an effect-log merge — and
// therefore carries its own versioned digest set instead of the v1
// goldens.

import (
	"sync"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// histOpKind distinguishes the deferred availability-history mutations.
type histOpKind uint8

const (
	// histOpRecord is IntervalHistory.RecordTransition(round, online).
	histOpRecord histOpKind = iota
	// histOpReset is IntervalHistory.Reset (occupant replaced).
	histOpReset
)

// histOp is one logged history mutation. Ops for one slot are applied
// in log order, which is exactly the order the sequential engine would
// have applied them in.
type histOp struct {
	round  int64
	slot   int32
	kind   histOpKind
	online bool
}

// histOpFanoutMin is the log size below which the fan-out is not worth
// the goroutine round trip and the ops are applied inline. The final
// history state is identical either way — per-slot op order is what
// matters, and the log preserves it under any split.
const histOpFanoutMin = 192

// shardState is the sharded engine's per-run state.
type shardState struct {
	n       int  // shard count (>= 2)
	logging bool // true while the churn phases log history mutations
	ops     []histOp

	// scratch holds one derived rng stream per shard, seeded from
	// (Config.Seed, shard index) via rng.Derive. These are the sharded
	// engine's randomness seam: shard-local draws that must never reach
	// canonical state (see the v2 invariant above). The current phases
	// are all draw-free, so the streams are reserved for shard-local
	// heuristics and for the test layer, which uses them to drive
	// adversarial interleavings without touching the canonical stream.
	scratch []*rng.Rand
}

// newShardState builds the fan-out state for cfg.Shards workers.
func newShardState(cfg Config) *shardState {
	sh := &shardState{n: cfg.Shards}
	sh.scratch = make([]*rng.Rand, sh.n)
	for i := range sh.scratch {
		sh.scratch[i] = rng.New(rng.Derive(cfg.Seed, uint64(i)))
	}
	return sh
}

// shardRange returns shard i's slot range [lo, hi) over the population.
// Ranges are contiguous, cover [0, NumPeers) exactly, and are empty for
// excess shards when Shards > NumPeers.
func (s *Simulation) shardRange(i int) (lo, hi int) {
	n := s.cfg.NumPeers
	return n * i / s.shards.n, n * (i + 1) / s.shards.n
}

// logHistOp appends one deferred history mutation while the churn
// phases run under the sharded engine.
func (s *Simulation) logHistOp(op histOp) {
	s.shards.ops = append(s.shards.ops, op)
}

// applyHistOp performs one logged mutation. RecordTransition can only
// fail on out-of-order rounds; the log preserves per-slot order, so a
// failure is an engine bug exactly as on the sequential path.
func (s *Simulation) applyHistOp(op histOp) {
	switch op.kind {
	case histOpReset:
		s.hist[op.slot].Reset()
	default:
		if err := s.hist[op.slot].RecordTransition(op.round, op.online); err != nil {
			panic(err)
		}
	}
}

// applyHistOps closes the logging window and applies the round's
// history mutations, fanning out across shards when the log is large
// enough to pay for the goroutines. Each worker walks the whole log
// and applies only the ops of its own slot range, so per-slot op order
// is preserved and no two workers touch the same history.
func (s *Simulation) applyHistOps() {
	sh := s.shards
	sh.logging = false
	if len(sh.ops) == 0 {
		return
	}
	if len(sh.ops) < histOpFanoutMin {
		for _, op := range sh.ops {
			s.applyHistOp(op)
		}
		sh.ops = sh.ops[:0]
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < sh.n; i++ {
		lo, hi := s.shardRange(i)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			for _, op := range sh.ops {
				if op.slot >= lo && op.slot < hi {
					s.applyHistOp(op)
				}
			}
		}(int32(lo), int32(hi))
	}
	wg.Wait()
	sh.ops = sh.ops[:0]
}

// warmWorthwhile reports whether this round's maintenance phase is
// expected to pool enough distinct candidates that computing every
// population slot's pure-policy score up front beats lazy per-candidate
// misses. The trigger reads only canonical state that is identical at
// every shard count (the actor set is collected by the sequential
// walk), so the warm decision itself cannot make S=k diverge from S=1 —
// and warming is invisible anyway: it consumes no randomness and writes
// only memo entries the lazy path would compute to the same values.
func (s *Simulation) warmWorthwhile() bool {
	return s.warmWorthwhileN(len(s.actors))
}

// warmWorthwhileN is warmWorthwhile for an externally tallied actor
// count (the v3 engine counts actors per shard worker).
func (s *Simulation) warmWorthwhileN(actors int) bool {
	return actors*s.cfg.PoolSamplePerRound >= s.cfg.NumPeers/2
}

// warmCaches fills the per-round score memo (when the policy's score is
// pure, else nothing) for every population slot, one shard per worker.
// Safe because the peer, history and oracle state a score reads is
// frozen between the churn walk and the maintenance phase, and each
// worker writes only its own shard's memo entries.
func (s *Simulation) warmCaches() {
	sh := s.shards
	ctx := selection.Context{Round: s.round}
	var wg sync.WaitGroup
	for i := 0; i < sh.n; i++ {
		lo, hi := s.shardRange(i)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.maint.WarmScoreRange(ctx, overlay.PeerID(lo), overlay.PeerID(hi))
		}(lo, hi)
	}
	wg.Wait()
}

// countIncluded tallies the peers holding a complete archive at the
// end of a run, fanning the read-only scan out across shards when the
// sharded engine is on.
func (s *Simulation) countIncluded() int {
	if s.shards == nil {
		included := 0
		for id := range s.peers {
			if s.maint.Included(overlay.PeerID(id)) {
				included++
			}
		}
		return included
	}
	counts := make([]int, s.shards.n)
	var wg sync.WaitGroup
	for i := 0; i < s.shards.n; i++ {
		lo, hi := s.shardRange(i)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				if s.maint.Included(overlay.PeerID(id)) {
					counts[i]++
				}
			}
		}(i, lo, hi)
	}
	wg.Wait()
	included := 0
	for _, c := range counts {
		included += c
	}
	return included
}
