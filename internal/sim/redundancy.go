package sim

// Adaptive redundancy: the engine-side state and round phase behind
// Config.RedundancySpec. The fixed shape (no policy, the default)
// allocates nothing here and draws nothing; an adaptive policy gets a
// per-archive target array, a derived scratch rng stream, and one
// evaluation phase per round.
//
// The rng rule: every draw an evaluation makes (partner subsampling)
// comes from a stream derived via rng.Derive(seed, redunStreamIndex),
// never from the canonical stream s.r or a slot's. The phase runs after
// the walk's merge and before the maintenance plan, on one goroutine,
// touches the ledger only through deterministic drops, and iterates
// slots in ascending order — so adaptive runs are bit-identical at
// every shard count, and fixed runs never see the stream at all.

import (
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/rng"
)

// redunStreamIndex is the rng.Derive index of the redundancy scratch
// stream ("REDUNDAN" in ASCII), far outside the slot streams' index
// range [slotStreamBase, slotStreamBase + NumPeers).
const redunStreamIndex uint64 = 0x5245_4455_4e44_414e

// redunEstGain is the per-evaluation EWMA gain of the availability
// estimate. One evaluation's probe is a 16-sample with-replacement
// draw whose noise swings the durability-minimal n(t) by tens of
// blocks; acting on it raw made the policy flap (grow/shrink cycles on
// sampling jitter) and, on a high-side spike, shrink archives toward
// n(t) ~ k' — where the expected visible count sits at or below k, so
// repairs stall undecodable and host deaths turn the dip into a hard
// loss. Smoothing over ~1/gain evaluations keeps a single probe from
// moving the target while still tracking real availability shifts
// within a few days of simulated time.
const redunEstGain = 0.25

// redunState is the adaptive-policy engine state (nil under the fixed
// shape).
type redunState struct {
	pol *redundancy.Adaptive // bound: Max, Eval and Sample are resolved
	r   *rng.Rand            // derived scratch stream; see the package rule above
	// target and thr hold each population slot's current n(t) and the
	// effective repair threshold it implies; the Maintainer reads both
	// slices (maintenance.SetTargets) on every step.
	target []int32
	thr    []int32
	// est holds each slot's smoothed availability estimate (the EWMA of
	// per-evaluation probes; 0 = no evaluation yet). See redunEstGain.
	est    []float64
	sum    int64 // sum of target, for the mean-n(t) series
	window int64 // monitored-uptime window (AcceptHorizon)
}

// newRedunState builds the per-archive arrays with every archive at the
// policy's Max, where a fresh archive starts (see redundancy.Adaptive).
func newRedunState(cfg Config) *redunState {
	rs := &redunState{
		pol:    cfg.redundancy,
		r:      rng.New(rng.Derive(cfg.Seed, redunStreamIndex)),
		target: make([]int32, cfg.NumPeers),
		thr:    make([]int32, cfg.NumPeers),
		est:    make([]float64, cfg.NumPeers),
		window: cfg.AcceptHorizon,
	}
	thr := redundancy.EffectiveThreshold(cfg.DataBlocks, cfg.RepairThreshold, cfg.TotalBlocks, rs.pol.Max)
	for i := range rs.target {
		rs.target[i] = int32(rs.pol.Max)
		rs.thr[i] = int32(thr)
	}
	rs.sum = int64(rs.pol.Max) * int64(cfg.NumPeers)
	return rs
}

// setTarget moves one slot's target, keeping the cached threshold and
// the population sum in step.
func (s *Simulation) setTarget(id overlay.PeerID, nt int) {
	rs := s.redun
	rs.sum += int64(nt) - int64(rs.target[id])
	rs.target[id] = int32(nt)
	rs.thr[id] = int32(redundancy.EffectiveThreshold(
		s.cfg.DataBlocks, s.cfg.RepairThreshold, s.cfg.TotalBlocks, nt))
}

// redunReset restores a slot's target to the policy's Max, where a
// fresh archive starts, when its archive identity changes (occupant
// replaced, archive lost and re-encoded). Not a policy decision: no
// event is emitted.
func (s *Simulation) redunReset(id overlay.PeerID) {
	if s.redun == nil || int(id) >= s.cfg.NumPeers {
		return
	}
	s.redun.est[id] = 0 // a new archive identity starts its estimate over
	s.setTarget(id, s.redun.pol.Max)
}

// stepRedundancy is the adaptive evaluation phase: each round it walks
// the round's cohort — the slots with id ≡ -round (mod eval), so every
// archive is evaluated exactly once per eval rounds and the per-round
// cost is NumPeers/eval — estimates each archive's availability from
// its partners' monitored histories, and applies the policy's verdict:
// grow starts an ordinary upload episode for the missing parity blocks
// (real transfers when bandwidth scheduling is on), shrink retires
// surplus placements at once; maintenance decides which.
func (s *Simulation) stepRedundancy(round int64) {
	rs := s.redun
	eval := rs.pol.Eval
	start := int((eval - round%eval) % eval)
	for id := start; id < s.cfg.NumPeers; id += int(eval) {
		s.evalRedundancy(round, overlay.PeerID(id))
	}
}

// evalRedundancy runs one archive's policy evaluation.
func (s *Simulation) evalRedundancy(round int64, id overlay.PeerID) {
	rs := s.redun
	// Only healthy, complete archives are retuned: an archive mid-repair
	// (or mid-grow) already converges to its target, and one awaiting
	// its initial upload has no partners to measure.
	if !s.maint.Included(id) || s.maint.Repairing(id) {
		return
	}
	nh := s.led.Alive(id)
	if nh == 0 {
		return
	}
	// Availability estimate, probe one: mean monitored uptime of the
	// partners over the acceptance window. Bounded monitoring cost: past
	// Sample partners, probe a with-replacement sample drawn on the
	// scratch stream (the draw count depends only on ledger state, which
	// is shard-count invariant).
	var p float64
	if nh <= rs.pol.Sample {
		for i := 0; i < nh; i++ {
			p += s.hist[s.hostAt(id, i)].Uptime(round, rs.window)
		}
		p /= float64(nh)
	} else {
		for i := 0; i < rs.pol.Sample; i++ {
			p += s.hist[s.hostAt(id, rs.r.Intn(nh))].Uptime(round, rs.window)
		}
		p /= float64(rs.pol.Sample)
	}
	// Probe two: the archive's own visible fraction right now — a direct,
	// unbiased measurement of what the actual placement set delivers
	// (monitored partner uptime overestimates it: partners still in the
	// set are survivors, and a small sample can land on always-on hosts
	// and report p ~ 1). The pessimistic min of the two probes feeds the
	// per-archive EWMA the policy actually sees; sizing on anything less
	// conservative shrank archives into repair-stall territory.
	if v := float64(s.led.Visible(id)) / float64(nh); v < p {
		p = v
	}
	if e := rs.est[id]; e > 0 {
		p = e + float64(redunEstGain*(p-e))
	}
	rs.est[id] = p
	cur := int(rs.target[id])
	nt := rs.pol.Target(redundancy.Observation{
		Round:        round,
		Current:      cur,
		DataBlocks:   s.cfg.DataBlocks,
		Availability: p,
	})
	if nt == cur {
		return
	}
	s.setTarget(id, nt)
	if nt > cur {
		// Grow: the maintenance upload machinery places the extra parity
		// blocks; the episode completes through the usual repair path.
		if !s.maint.GrowArchive(id) {
			// Included and idle was checked above; a refusal here is an
			// engine bug, not a policy condition.
			panic("sim: GrowArchive refused an idle included archive")
		}
	} else {
		s.maint.ShrinkArchive(id, nt)
	}
	ev := RedundancyEvent{Round: round, Peer: int(id), From: cur, To: nt, Availability: p}
	for _, pr := range s.dispatch[evRedundancyChange] {
		pr.OnRedundancyChange(ev)
	}
}

// hostAt returns the host of id's i-th placement, for an index the
// engine derived from the ledger's own Alive count.
func (s *Simulation) hostAt(id overlay.PeerID, i int) overlay.PeerID {
	host, err := s.led.HostAt(id, i)
	if err != nil {
		panic(err) // ledger indexes are engine-controlled
	}
	return host
}
