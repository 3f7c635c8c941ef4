// Package redundancy implements the adaptive per-archive redundancy
// layer: an online controller that retunes each archive's target block
// count n(t) from monitored partner availability, after Dell'Amico et
// al., "Adaptive Redundancy Management for Durable P2P Backup" (arXiv
// 1201.2360).
//
// The paper this repository reproduces fixes the erasure shape (n, k)
// and the repair threshold k' for a whole run. Adaptive relaxes that:
// it observes an archive's monitored availability estimate (the mean
// uptime of its partners over the monitoring window, exactly the
// substrate monitor.IntervalHistory maintains) and decides whether the
// archive should grow — encode and place extra parity blocks — or
// shrink — retire surplus placements, releasing peer storage. The
// estimate behind the decision is the binomial tail Durability(n, k',
// p): the probability the archive holds at least k' available blocks,
// so the configured repair cushion k'-k stays intact at every n(t).
// MinBlocksFor turns the tail into a size — the smallest n that holds a
// target probability, found by a bisection that returns exactly what a
// scan over n would; a bound Adaptive starts that search from
// availability bands it builds once (bands.go), so a routine decision
// compares no tail at all — and the upload cost of a grow decision is
// priced by costmodel.ParityUploadCost.
//
// Policies resolve through Parse, in the spec-string grammar selection
// shares (package spec):
//
//	fixed                                       no policy: Parse returns nil
//	adaptive                                    defaults: min=k', max=n, target=0.99999
//	adaptive:min=160,max=256,target=0.95
//	adaptive:target=0.9999,hysteresis=4,eval=48
//
// Adaptive is the one policy that acts, so it is a concrete type and
// nil is the paper's fixed shape. The simulation engine consults the
// bound policy on a fixed per-archive cadence (Eval), drawing any
// randomness the evaluation needs — partner subsampling — from a
// scratch stream derived via rng.Derive, never from the engine's
// canonical stream, so fixed-mode runs are bit-identical to
// pre-adaptive runs and adaptive runs are bit-identical at every shard
// count.
package redundancy

import (
	"fmt"
	"math"
)

// Observation is what Adaptive.Target sees when it evaluates one
// archive.
type Observation struct {
	// Round is the evaluation round.
	Round int64
	// Current is the archive's current target block count n(t).
	Current int
	// DataBlocks is k, the blocks needed to decode.
	DataBlocks int
	// Availability is the monitored availability estimate for the
	// archive's blocks: the mean uptime of (a sample of) its partners
	// over the monitoring window.
	Availability float64
}

// Durability returns the probability that an archive of n blocks, each
// independently available with probability p, has at least k blocks
// available — the binomial decode probability behind every adaptive
// decision. Computed in log space from a table of ln i! (math.Lgamma
// beyond it), stable for any n the simulator uses.
func Durability(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if n < k || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return binomTail(n, k, math.Log(p), math.Log1p(-p))
}

// binomTail is Durability's sum for 0 < k <= n and 0 < p < 1, given
// lp = ln p and lq = ln(1-p). The term expression and the summation
// order are pinned bit for bit by the tests: every golden digest of an
// adaptive run depends on them.
func binomTail(n, k int, lp, lq float64) float64 {
	lgn := lnFact(n)
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += math.Exp(lgn - lnFact(i) - lnFact(n-i) + float64(float64(i)*lp) + float64(float64(n-i)*lq))
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// lnFactTable holds ln i! = Lgamma(i+1) for every i up to twice the
// paper's n = 256, as math.Lgamma returns it. Built once at package
// initialisation and never written again, so concurrent simulations
// share it without synchronisation.
var lnFactTable = func() (t [513]float64) {
	for i := range t {
		t[i], _ = math.Lgamma(float64(i + 1))
	}
	return t
}()

// lnFact returns ln i! for i >= 0.
func lnFact(i int) float64 {
	if i < len(lnFactTable) {
		return lnFactTable[i]
	}
	v, _ := math.Lgamma(float64(i + 1))
	return v
}

// tailSlack is how far under a target a computed tail of up to n blocks
// must sit before every computed tail of fewer blocks is certain to sit
// under the target too. The tail's rounding error grows like n ln n
// ulps — 4e-13 at n = 256 — and the tests hold it, and the
// non-monotonicity it causes, to a small fraction of this.
func tailSlack(n int) float64 { return float64(4e-12 * float64(n)) }

// tailEstimate approximates binomTail(n, k, lp, lq), given p = e^lp as
// well, by the term recurrence instead of one math.Exp per term: one
// math.Exp for the term at the mode m = clamp(⌊(n+1)p⌋, k, n), then
// t(i+1) = t(i)·(n-i)/(i+1)·p/q up to n and t(i-1) = t(i)·i/(n-i+1)·q/p
// down to k. Starting at the mode is what keeps it accurate: every step
// moves away from the largest term, so none overflows and the ones that
// underflow are negligible; started at k, the first term underflows to
// 0 for p near 1 and the estimate would be 0 for a tail near 1. It is
// not pinned bit for bit, only within tailSlack(n)/16 of binomTail
// (TestTailEstimateWithinSlack), which is all MinBlocksFor asks of it.
func tailEstimate(n, k int, p, lp, lq float64) float64 {
	m := min(max(int(float64(n+1)*p), k), n)
	tm := math.Exp(lnFact(n) - lnFact(m) - lnFact(n-m) + float64(float64(m)*lp) + float64(float64(n-m)*lq))
	r := p / (1 - p)
	sum, t := tm, tm
	for i := m; i < n; i++ {
		t = float64(t * (float64(n-i) / float64(i+1) * r))
		sum += t
	}
	t = tm
	for i := m; i > k; i-- {
		t = float64(t * (float64(i) / float64(n-i+1) / r))
		sum += t
	}
	return sum
}

// MinBlocksFor returns the smallest n in [lo, hi] with Durability(n, k,
// p) >= target, or hi when no n below hi reaches it — exactly what
// scanning n = lo, lo+1, ... would return, for any arguments but one, in
// O(log(hi-lo)) evaluations of the tail. The one: the scan would take a
// NaN p for a perfect availability; it is no measurement at all, and
// sizes to hi.
//
// Bisection finds the scan's answer because the tail is monotone in n —
// the exact tail, that is: the computed one wobbles by a few 1e-13 where
// it saturates near 1, and the scan stops at the first n its computed
// value clears. So the bisection brackets where the tail clears target
// minus tailSlack, below which no computed value can clear target, and
// the scan runs from there: one step, unless target is within the slack
// of 1.
//
// Each comparison of a tail with a threshold is decided by tailEstimate
// when the estimate sits more than the slack away from the threshold:
// the estimate is within a sixteenth of the slack of the computed tail,
// so the computed tail sits on the same side. Only an estimate inside
// the slack costs the pinned sum — well under 1 % of the comparisons
// (TestExactTailIsRare) — and the answer is the scan's either way.
func MinBlocksFor(lo, hi, k int, p, target float64) int {
	n, _, _ := minBlocks(lo, hi, k, p, target)
	return n
}

// minBlocks is MinBlocksFor, also reporting how many tails it compared
// with a threshold and for how many of those it ran the pinned sum.
func minBlocks(lo, hi, k int, p, target float64) (n, probes, sums int) {
	return minBlocksSlack(lo, hi, k, p, target, tailSlack(max(hi, 0)))
}

// minBlocksSlack is minBlocks with the slack given: any slack of at
// least tailSlack(hi) keeps the answer the scan's. Adaptive.Target
// searches a bracket inside [Min, Max] with tailSlack(Max), the slack
// its bands certify against, so that the bracket asks each tail the
// same question the whole range would.
func minBlocksSlack(lo, hi, k int, p, target, slack float64) (n, probes, sums int) {
	if lo >= hi {
		return lo, 0, 0 // what the scan returns without a comparison
	}
	if math.IsNaN(p) {
		return hi, 0, 0
	}
	lp, lq := math.Log(p), math.Log1p(-p) // once per decision, not per n
	below := func(n int, thr float64) bool {
		probes++
		if k <= 0 || n < k || p <= 0 || p >= 1 {
			return Durability(n, k, p) < thr // 0 or 1 without a sum
		}
		est := tailEstimate(n, k, p, lp, lq)
		if est < thr-slack {
			return true
		}
		if est > thr+slack {
			return false
		}
		sums++
		return binomTail(n, k, lp, lq) < thr
	}
	n, top := lo, hi
	for n < top {
		mid := n + (top-n)/2
		if below(mid, target-slack) {
			n = mid + 1
		} else {
			top = mid
		}
	}
	for n < hi && below(n, target) {
		n++
	}
	return n, probes, sums
}

// EffectiveThreshold maps an archive's target block count to its repair
// threshold. The configured slack k'-k is kept as an ABSOLUTE cushion,
// never scaled down with n(t): that slack is the number of simultaneous
// host failures a triggered repair can ride out before the archive
// drops below k and is lost, and a shrunk archive needs every one of
// those blocks more than a full-size one does. (An early draft scaled
// the slack proportionally with n(t)-k; at n(t) around 1.3k that left
// single-digit cushions and measurably worse object durability than the
// fixed policy.) The result is clamped to [k, target]: an archive
// deliberately sized below k' repairs as soon as any block is missing.
func EffectiveThreshold(k, kprime, n, target int) int {
	if target >= n || n <= k {
		return kprime
	}
	thr := kprime
	if thr > target {
		thr = target
	}
	if thr < k {
		thr = k
	}
	return thr
}

// Default knobs of the adaptive policy.
const (
	// DefaultTargetDurability is the probability of holding >= k'
	// available blocks the adaptive policy sizes archives for when the
	// spec omits target=. Five nines keeps cumulative object losses at
	// the fixed policy's level while still undercutting its storage
	// bill: a lax target (say 0.9) would halve the footprint but bleed
	// archives.
	DefaultTargetDurability = 0.99999
	// defaultHysteresis is how many surplus blocks an archive may carry
	// before the policy bothers shrinking it (flap damping: sampled
	// availability estimates jitter, and every shrink a later grow
	// regrets is paid for in uplink time).
	defaultHysteresis = 6
	// defaultEvalEvery is the per-archive evaluation cadence in rounds
	// (one day: availability estimates move on session time scales).
	defaultEvalEvery int64 = 24
	// defaultSamplePeers is how many partners an evaluation probes.
	defaultSamplePeers = 16
	// maxShrinkPerEval caps how many blocks one evaluation may retire.
	// Shrinking is the only move that can be wrong in the dangerous
	// direction, and it acts on an estimate; descending stepwise means a
	// mis-measured archive is at most one step below where the next
	// evaluation can halt it, instead of arbitrarily deep. Growing is
	// never capped — a deficit is repaired in full immediately.
	maxShrinkPerEval = 8
)

// Adaptive sizes each archive to the smallest n(t) in [Min, Max] that
// keeps at least k' blocks available with probability TargetDurability
// at the monitored partner availability, shrinking only when the
// surplus exceeds Hysteresis blocks. Sizing against the repair
// threshold k' rather than against k is deliberate: holding >= k'
// preserves the full configured cushion of k'-k block failures between
// "repair triggers" and "archive lost", so the hard-loss probability
// sits orders of magnitude below 1-TargetDurability.
//
// Bind resolves a policy against the code shape; the bound copy is
// immutable, safe to share between concurrently running simulations.
type Adaptive struct {
	// Min and Max bound the target block count. 0 resolves at Bind to
	// k' (below it the archive would trigger a repair on arrival) and
	// to n (the ledger's preallocated ceiling). A fresh archive starts
	// at Max, the full provision, and shrinks only once evidence
	// accumulates: it has no availability measurement yet, and at the
	// paper's shape an archive born at k' expects fewer than k blocks
	// visible — undecodable more often than not, and one unlucky week
	// from permanent loss. Starting minimal and growing would re-enter
	// that fragile state on every occupant replacement; starting full
	// costs at most one evaluation cadence of extra storage.
	Min, Max int
	// TargetDurability is the probability, in (0, 1), that an archive
	// holds at least k' available blocks at the monitored availability.
	// 0 resolves at Bind to DefaultTargetDurability.
	TargetDurability float64
	// Hysteresis is the surplus (in blocks) tolerated before shrinking.
	Hysteresis int
	// Eval is the per-archive evaluation cadence in rounds; 0 resolves
	// at Bind to one day.
	Eval int64
	// Sample is how many partners an evaluation probes for the
	// availability estimate (the monitoring cost bound); 0 resolves at
	// Bind to 16.
	Sample int

	// kprime is the code shape's repair threshold, recorded at Bind; it
	// is what Target sizes archives against.
	kprime int
	// bands are the availability edges of sizing against kprime, built
	// at Bind; nil where they do not apply (see newBands).
	bands *bands
}

// Bind resolves the policy against a code shape (k data blocks, repair
// threshold k', n total blocks): every zero field takes its default,
// Min and Max the shape's [k', n], and the result must satisfy
// k < Min <= Max <= n. It returns the bound copy and leaves a as it is.
func (a *Adaptive) Bind(k, kprime, n int) (*Adaptive, error) {
	b := *a
	if b.Min == 0 {
		b.Min = kprime
	}
	if b.Max == 0 {
		b.Max = n
	}
	if b.TargetDurability == 0 {
		b.TargetDurability = DefaultTargetDurability
	}
	if b.Eval == 0 {
		b.Eval = defaultEvalEvery
	}
	if b.Sample == 0 {
		b.Sample = defaultSamplePeers
	}
	if err := b.validate(k, n); err != nil {
		return nil, err
	}
	b.kprime = kprime
	b.bands = newBands(b.Min, b.Max, kprime, b.TargetDurability)
	return &b, nil
}

// validate checks the policy's fields against a code shape of k data
// blocks and n in all, or — with k and n 0, as Parse calls it — only
// what holds at every shape.
func (a *Adaptive) validate(k, n int) error {
	switch {
	case k > 0 && a.Min <= k:
		return fmt.Errorf("%w: adaptive: min=%d must exceed k=%d", ErrBadSpec, a.Min, k)
	case a.Min < 0 || a.Max < 0:
		return fmt.Errorf("%w: adaptive: min=%d, max=%d must be >= 0", ErrBadSpec, a.Min, a.Max)
	case a.Min > 0 && a.Max > 0 && a.Min > a.Max:
		return fmt.Errorf("%w: adaptive: min=%d exceeds max=%d", ErrBadSpec, a.Min, a.Max)
	case n > 0 && a.Max > n:
		return fmt.Errorf("%w: adaptive: max=%d exceeds the configured n=%d (the ledger's preallocated ceiling)", ErrBadSpec, a.Max, n)
	case !(a.TargetDurability > 0 && a.TargetDurability < 1):
		return fmt.Errorf("%w: adaptive: target=%v outside (0, 1)", ErrBadSpec, a.TargetDurability)
	case a.Hysteresis < 0:
		return fmt.Errorf("%w: adaptive: hysteresis=%d must be >= 0", ErrBadSpec, a.Hysteresis)
	case a.Eval < 1:
		return fmt.Errorf("%w: adaptive: eval=%d must be >= 1", ErrBadSpec, a.Eval)
	case a.Sample < 1:
		return fmt.Errorf("%w: adaptive: sample=%d must be >= 1", ErrBadSpec, a.Sample)
	}
	return nil
}

// Target returns the archive's desired block count: the smallest n(t)
// in [Min, Max] holding at least k' available blocks with probability
// TargetDurability at the observed availability — what MinBlocksFor
// answers, found from the bands Bind built (see need) — with shrink
// hysteresis. Growing is any return above obs.Current; shrinking below
// it. Without a measurement to size from — a policy that was never
// bound to a code shape, or a non-finite availability — the target
// stays where it is.
func (a *Adaptive) Target(obs Observation) int {
	if a.kprime == 0 || math.IsNaN(obs.Availability) || math.IsInf(obs.Availability, 0) {
		return obs.Current
	}
	thr := a.kprime
	if thr < obs.DataBlocks {
		thr = obs.DataBlocks
	}
	need, _, _ := a.need(thr, obs.Availability)
	if need > obs.Current {
		return need // grow immediately: durability is at stake
	}
	if obs.Current-need > a.Hysteresis {
		// Shrink only past the flap-damping band, and stepwise: see
		// maxShrinkPerEval.
		if obs.Current-need > maxShrinkPerEval {
			return obs.Current - maxShrinkPerEval
		}
		return need
	}
	return obs.Current
}

// need is MinBlocksFor(Min, Max, thr, p, TargetDurability), also
// reporting minBlocks's counts. Where the bands apply — sizing against
// k' at an availability in (0, 1) — the search starts from the bracket
// they leave undecided, usually zero or one n wide, instead of [Min,
// Max]; its answer is the same, since every n below the bracket is
// certainly short of the target and its top certainly reaches it or is
// Max.
func (a *Adaptive) need(thr int, p float64) (n, probes, sums int) {
	lo, hi := a.Min, a.Max
	if a.bands != nil && thr == a.kprime && p > 0 && p < 1 {
		lo, hi = a.bands.bracket(a.Min, p)
	}
	return minBlocksSlack(lo, hi, thr, p, a.TargetDurability, tailSlack(a.Max))
}
