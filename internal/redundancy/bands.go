package redundancy

import "math"

// bands are a bound policy's availability edges: for every n in [Min,
// Max], at index n − Min, an availability lo at or below which the
// pinned tail of n blocks is certainly under target − slack, and one hi
// at or above which it certainly reaches target, where slack is
// tailSlack(Max). Every archive the policy sizes asks the same question
// of the same n, so the answer depends on its availability only through
// where that falls between these edges: below lo(n), n is too few
// blocks; above hi(n), n suffices; in between, the tail itself decides.
//
// Each edge is a point at which tailEstimate was computed and sat on
// its side with a margin of 4·slack. The estimate is within slack/16 of
// the pinned tail and that within slack/16 of the exact tail
// (TestTailEstimateWithinSlack, TestDurabilityErrorUnderSlack), so the
// exact tail at the edge is on the same side by 4·slack − slack/8; the
// exact tail is monotone in p, so it stays on that side beyond the
// edge, and the pinned tail, within slack/16 of it, does too. Both edge
// lists are then lowered (lo) and raised (hi) to be non-increasing in
// n, as the exact thresholds are, which only moves each edge further
// into its side and lets Target find the undecided stretch of n with
// two binary searches. An n below k never holds k blocks, so its tail
// is 0 at every availability: both its edges are 1, above every
// availability the bands are consulted for.
//
// Built once at Bind and never written again, so concurrent simulations
// share them without synchronisation.
type bands struct {
	lo, hi []float64
}

// bandMargin is how far past a threshold, in slacks, the estimate must
// sit at an edge.
const bandMargin = 4

// newBands builds the edges of sizing against k blocks with the given
// target over [first, last], or returns nil when the target is within
// bandMargin slacks of 0 or 1: there a margin would reach past what a
// tail can be, and every decision searches the whole range.
func newBands(first, last, k int, target float64) *bands {
	slack := tailSlack(last)
	margin := float64(bandMargin * slack)
	if !(target > margin && target < 1-margin) {
		return nil
	}
	under, clears := target-slack-margin, target+margin
	b := &bands{lo: make([]float64, last-first+1), hi: make([]float64, last-first+1)}
	for i := range b.lo {
		if n := first + i; n < k {
			b.lo[i], b.hi[i] = 1, 1
		} else {
			b.lo[i], b.hi[i] = edges(n, k, under, clears)
		}
	}
	for i := 1; i < len(b.lo); i++ {
		b.lo[i] = math.Min(b.lo[i], b.lo[i-1])
	}
	for i := len(b.hi) - 2; i >= 0; i-- {
		b.hi[i] = math.Max(b.hi[i], b.hi[i+1])
	}
	return b
}

// edgeULPs is how close, in units of the last place, edges brackets
// each crossing before it stops. 2^20 ulps is about 1e-10 of p at the
// paper's availabilities, where the crossings of adjacent n lie 0.0024
// apart: an availability lands in the sliver this adds to a bracket
// about once in 1e7 evaluations and costs one more tail there, while
// the last twenty halvings of both edges would cost a third of Bind.
const edgeULPs = 1 << 20

// edges bisects the availabilities in [0, 1], by their bit patterns,
// for a p at which tailEstimate(n, k, p) sits under under and one at
// which it reaches clears, each within edgeULPs of where the estimate
// crosses. An edge no p in (0, 1) certifies comes back as 0 (lo) or 1
// (hi), which no availability the bands are consulted for lies at or
// beyond. hi's search starts at lo, where the estimate is under clears
// too.
func edges(n, k int, under, clears float64) (lo, hi float64) {
	// cross returns the last probe from the bit pattern from on at which
	// the estimate is under thr, or from, and the first at which it is
	// not, or 1.
	cross := func(thr float64, from uint64) (below, above uint64) {
		below, above = from, math.Float64bits(1)
		for above-below > edgeULPs {
			mid := below + (above-below)/2
			if p := math.Float64frombits(mid); tailEstimate(n, k, p, math.Log(p), math.Log1p(-p)) < thr {
				below = mid
			} else {
				above = mid
			}
		}
		return below, above
	}
	a0, _ := cross(under, 0)
	_, b1 := cross(clears, a0)
	return math.Float64frombits(a0), math.Float64frombits(b1)
}

// bracket returns the stretch [lo, hi] of [first, first+len−1] the edges
// leave undecided at availability p in (0, 1): every n below lo is
// certainly under target − slack, and hi is the first n that certainly
// reaches target, or the last n. So the smallest n reaching target is
// in [lo, hi], and it is hi if none before hi does — the range
// minBlocks searches.
func (b *bands) bracket(first int, p float64) (lo, hi int) {
	i, j := 0, len(b.lo)
	for i < j {
		if mid := int(uint(i+j) >> 1); p <= b.lo[mid] {
			i = mid + 1
		} else {
			j = mid
		}
	}
	lo = min(i, len(b.lo)-1)
	i, j = lo, len(b.hi)
	for i < j {
		if mid := int(uint(i+j) >> 1); p >= b.hi[mid] {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return first + lo, first + min(i, len(b.hi)-1)
}
