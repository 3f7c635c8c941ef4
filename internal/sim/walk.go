// The round: a slot-local churn walk, a canonical merge of its shared
// effects, and maintenance planned against the frozen result.
//
//   - Randomness is per slot: slot i draws every walk and
//     maintenance-plan decision from its own stream, seeded
//     rng.Derive(Config.Seed, slotStreamBase+i). A slot's draw sequence
//     depends only on its own event history, never on which goroutine
//     ran it or what other slots did this round.
//   - Walk-time mutation is slot-local only: a visit touches its slot's
//     peer record and join round, availability history, timers,
//     scheduler link class and maintenance peerState — all owned
//     exclusively by the slot's shard. Every shared-state effect (ledger
//     membership, transfer aborts/suspends, redundancy resets, probe
//     events) is recorded in the shard's effect log instead, except a
//     session flip's ledger half: the shard stages it into its own flip
//     batch (Ledger.StageOnline), which only reads the ledger.
//   - The merge commits every shard's staged flips in one pass
//     (Ledger.CommitFlips), then applies the effect logs at the round
//     barrier in canonical (shard index, log order) order — which,
//     because visits are partitioned in ascending slot order, is
//     ascending slot order globally. Watcher crossings, quota releases
//     and probe events therefore fire in one deterministic sequence;
//     the commit's crossings are net over the whole batch.
//   - Maintenance splits into a plan phase (each shard plans its own
//     online actors against the frozen post-merge round state, drawing
//     from the owners' slot streams — see maintenance.PlanStep) and a
//     sequential apply phase in the same canonical order, which
//     re-validates only the genuinely contended resource: host quota.
//
// What follows from the freeze: a watcher crossing caused mid-walk arms
// its slot for the next round's walk; walk-time reads of shared state
// (loss checks, WantsStep) see the pre-walk ledger; actors run in
// ascending slot order and an owner that loses a quota race at apply
// time retries next round; the decode-point pool refresh sees the
// pre-drop host set.
//
// The sequential phases (shocks, restores, replay, New) call the same
// per-event bodies with a nil worker, which applies the shared half at
// once. With one shard the walk and the plan run on the calling
// goroutine, with no fan-out.

package sim

import (
	"sync"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/maintenance"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// slotStreamBase is the rng.Derive index base of the per-slot streams:
// slot i draws from Derive(seed, slotStreamBase+i). The offset keeps
// the slot index space disjoint from the adaptive-redundancy stream
// (redunStreamIndex) under the same seed.
const slotStreamBase uint64 = 1 << 33

// effectKind discriminates a logged shared-state effect.
type effectKind uint8

const (
	// effDeath is a departure: the death/leave events, the ledger
	// removal and the transfer aborts of the departed identity.
	effDeath effectKind = iota
	// effJoin is the replacement (or initial) identity going live:
	// ledger session state and the join/online churn events.
	effJoin
	// effFlip is a session toggle: the churn event and the transfer
	// suspend/resume. Its ledger half is staged in the worker's flip
	// batch, which the merge commits ahead of the log.
	effFlip
	// effHardLoss is a detected permanent archive loss: the owner's
	// transfer aborts, the ledger release of the surviving placements,
	// the redundancy reset and the hard-loss event.
	effHardLoss
)

// effect is one shared-state effect of a per-event body, captured with
// the identity attributes its probe events carry.
type effect struct {
	kind   effectKind
	id     int32
	prof   int32
	cat    metrics.Category
	online bool
}

// peerEvent builds the probe payload for the identity the effect was
// captured with.
func (e effect) peerEvent(round int64) PeerEvent {
	return PeerEvent{Round: round, Peer: int(e.id), Category: e.cat, Profile: int(e.prof)}
}

// calPush is a deferred calendar insertion: the bucket-queue arena is
// shared, so workers log their post-visit reschedules and the merge
// pushes them.
type calPush struct {
	slot  int32
	round int64
}

// worker is one shard's accumulator for a round: its segment of the
// walk set, its staged session flips, the effect log, the slots to
// re-visit next round, the deferred calendar pushes, the shard's online
// actors with their planning scratch, and the population deltas folded
// into the canonical counters at the merge.
type worker struct {
	seg      []int32
	flips    *overlay.Flips // the shard's staged session flips: s.flips[i]
	effects  []effect
	visits   []int32
	cal      []calPush
	actors   []overlay.PeerID
	catDelta [metrics.NumCategories]int64
	deaths   int64
	ws       *maintenance.Workspace
	busy     bool // has work in the phase eachShard is about to run
}

// reset clears the worker for a new round, keeping capacity.
func (w *worker) reset() {
	w.effects = w.effects[:0]
	w.visits = w.visits[:0]
	w.cal = w.cal[:0]
	w.actors = w.actors[:0]
	w.catDelta = [metrics.NumCategories]int64{}
	w.deaths = 0
	w.ws.Reset()
}

// shardRange returns shard i's slot range [lo, hi) over the population.
// Ranges are contiguous, cover [0, NumPeers) exactly, and are empty for
// excess shards when there are more shards than slots.
func (s *Simulation) shardRange(i int) (lo, hi int) {
	n := s.cfg.NumPeers
	return n * i / len(s.workers), n * (i + 1) / len(s.workers)
}

// eachShard runs work on every busy shard's worker and returns when all
// are done: on the calling goroutine when there is one shard, one
// goroutine per shard otherwise.
func (s *Simulation) eachShard(work func(*Simulation, *worker)) {
	if len(s.workers) == 1 {
		if w := &s.workers[0]; w.busy {
			work(s, w)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range s.workers {
		w := &s.workers[i]
		if !w.busy {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(s, w)
		}()
	}
	wg.Wait()
}

// stepRound advances one round: shocks, restore demand and replayed
// churn first, so this round's walk and maintenance already see them;
// then the walk over the frozen visit set and the merge of its effects;
// due transfer completions, after the walk so a same-round death or
// offline event wins over the completion and before maintenance so
// delivered blocks count toward this round's deficits; the adaptive
// redundancy evaluation; maintenance, planned per shard and applied in
// canonical order; the observers; accounting.
func (s *Simulation) stepRound() {
	round := s.round
	pt := s.phaseStart()

	// Sequential pre-phases on the canonical stream. Wakes they cause
	// join this round's walk set.
	if len(s.cfg.Shocks) > 0 {
		s.stepShocks(round)
	}
	if s.xfer != nil && len(s.cfg.Restores) > 0 {
		s.stepRestores(round)
	}
	if s.replay != nil {
		s.applyReplay(round)
	}

	// Freeze the walk set: due timers plus every queued visit, in
	// ascending slot order (the queue dedups), cut into one contiguous
	// segment per shard. From here to the end of the round any visit
	// request targets the next round.
	s.due = s.cal.drain(round, s.sched, s.due[:0])
	for _, slot := range s.due {
		s.visitQ.push(slot)
	}
	s.visits = s.visitQ.drain(s.visits[:0])
	cut := 0
	for i := range s.workers {
		w := &s.workers[i]
		w.reset()
		_, hi := s.shardRange(i)
		lo := cut
		for cut < len(s.visits) && int(s.visits[cut]) < hi {
			cut++
		}
		w.seg = s.visits[lo:cut]
		w.busy = len(w.seg) > 0
	}

	// The walk. The Maintainer's wake hook is detached because a worker
	// collects its own armed slots; merge-time crossings find the hook
	// re-installed.
	s.maint.SetWake(nil)
	s.eachShard((*Simulation).walkShard)
	s.maint.SetWake(s.wake)
	s.phaseLap(&s.phases.Walk, &pt)

	s.merge(round)
	s.phaseLap(&s.phases.Merge, &pt)

	if s.xfer != nil {
		s.stepTransfers(round)
	}
	s.phaseLap(&s.phases.TransferDrain, &pt)
	if s.redun != nil {
		s.stepRedundancy(round)
	}
	s.phaseLap(&s.phases.Evaluation, &pt)

	// Maintenance: plan per shard against the frozen round state, then
	// apply in canonical order (see maintenance/plan.go for the
	// soundness argument).
	for i := range s.workers {
		w := &s.workers[i]
		w.busy = len(w.actors) > 0
	}
	s.eachShard((*Simulation).planShard)
	for i := range s.workers {
		ws := s.workers[i].ws
		for j := range ws.Results {
			pr := &ws.Results[j]
			s.emitMaintOutcome(round, pr.Owner, s.maint.ApplyPlan(ws, pr))
		}
	}

	// Observers act after the population (they contend with nobody),
	// sequentially on the canonical stream.
	for i := range s.obsSpecs {
		id := s.observerSlot(i)
		if s.maint.LostArchive(id) {
			s.maint.ResetArchive(id)
		}
		if s.maint.WantsStep(id) {
			res := s.maint.Step(s.r, id)
			switch res.Outcome {
			case maintenance.OutcomeRepaired, maintenance.OutcomeInitialDone:
				ev := ObserverRepairEvent{Round: round, Observer: i, Name: s.obsSpecs[i].Name}
				for _, pr := range s.dispatch[evObserverRepair] {
					pr.OnObserverRepair(ev)
				}
			}
		}
	}

	// Accounting.
	end := RoundEndEvent{Round: round, Population: s.catPop}
	if s.redun != nil {
		end.MeanRedundancy = float64(s.redun.sum) / float64(s.cfg.NumPeers)
	}
	for _, pr := range s.dispatch[evRoundEnd] {
		pr.OnRoundEnd(end)
	}
	s.phaseLap(&s.phases.Maintenance, &pt)
}

// walkShard visits the worker's segment of the round's walk set.
func (s *Simulation) walkShard(w *worker) {
	for _, slot := range w.seg {
		s.visitSlot(w, s.round, overlay.PeerID(slot))
	}
}

// planShard plans the round's maintenance for the worker's actors, each
// on its own slot stream.
func (s *Simulation) planShard(w *worker) {
	s.maint.ReservePlans(w.ws, w.actors)
	for _, id := range w.actors {
		s.maint.PlanStep(&s.streams[id], id, w.ws)
	}
}

// visitSlot runs the per-slot round body for one walked slot: due timed
// events first (death, else category promotion, then the session
// toggle), then the pending archive-loss check, then active-set
// bookkeeping. All draws come from the slot's own stream. A slot woken
// spuriously (its timer moved later after scheduling) finds nothing due,
// consumes no randomness, and is simply rescheduled.
func (s *Simulation) visitSlot(w *worker, round int64, id overlay.PeerID) {
	p := &s.peers[id]
	r := &s.streams[id]
	if s.sched[id] == round {
		if s.replay != nil {
			if round >= p.catChange {
				s.promote(w, id, p)
			}
		} else {
			if round >= p.death {
				s.replacePeer(w, id, p, round, r)
			} else if round >= p.catChange {
				s.promote(w, id, p)
			}
			if round >= p.toggle {
				next := addClamped(round, s.cfg.avail.SessionLength(r, p.avail, !p.online, round))
				s.setOnline(w, round, id, p, !p.online)
				p.toggle = next
			}
		}
		// Anything still (or again) due is deferred to the next round.
		next := s.nextWake(p)
		if next <= round {
			next = round + 1
		}
		s.sched[id] = next
		if next < s.cfg.Rounds {
			w.cal = append(w.cal, calPush{slot: int32(id), round: next})
		}
	}

	// Permanent-loss detection is objective (the data is gone) and does
	// not require the owner to be online; the outage that preceded it was
	// counted when the owner observed it. The flag is only a candidate
	// marker set at the alive<k crossing; LostArchive, read on the frozen
	// pre-walk ledger, is the verdict. The slot-local half of the reset
	// runs here, the shared half through the merge.
	if s.maint.TakeLossCheck(id) && s.maint.LostArchive(id) {
		w.effects = append(w.effects, effect{kind: effHardLoss, id: int32(id), prof: p.profile, cat: p.cat})
		s.maint.ResetArchiveLocal(id)
	}

	if s.maint.Armed(id) {
		if !s.maint.WantsStep(id) {
			s.maint.Disarm(id)
		} else {
			if p.online {
				w.actors = append(w.actors, id)
			}
			// Armed slots are re-visited every round until their work
			// drains.
			w.visits = append(w.visits, int32(id))
		}
	}
}

// promote moves a peer up one age category.
func (s *Simulation) promote(w *worker, id overlay.PeerID, p *peer) {
	w.catDelta[p.cat]--
	p.cat++
	w.catDelta[p.cat]++
	p.catChange = addClamped(s.joins[id], metrics.CategoryBound(p.cat))
}

// replacePeer handles a departure: blocks vanish, the slot is reused by
// a fresh age-0 peer (the paper replaces departures immediately). The
// replacement inherits the departed peer's profile so the population
// proportions stay exactly stationary: the paper presents them as
// stationary system properties.
func (s *Simulation) replacePeer(w *worker, id overlay.PeerID, p *peer, round int64, r *rng.Rand) {
	w.effects = append(w.effects, effect{kind: effDeath, id: int32(id), prof: p.profile, cat: p.cat})
	w.deaths++
	w.catDelta[p.cat]--
	w.catDelta[metrics.Newcomer]++
	s.tab.Bump(id)
	// The wake hook is detached, so Reset's re-arm is slot-local; the
	// visit's own Armed check queues the slot.
	s.maint.Reset(id)
	s.initPeer(w, id, round, int(p.profile), r)
}

// initPeer (re)initialises a population slot at the given join round
// with the given profile (pass -1 to sample one): fresh lifetime and
// availability session, drawn from r.
func (s *Simulation) initPeer(w *worker, id overlay.PeerID, round int64, profile int, r *rng.Rand) {
	p := &s.peers[id]
	prof := profile
	if prof < 0 {
		prof = s.cfg.Profiles.SampleIndex(r)
	}
	p.profile = int32(prof)
	p.avail = s.cfg.Profiles.Profile(prof).Availability
	if s.xfer != nil {
		// Bandwidth class is an identity property like the profile (with
		// a single class SampleIndex consumes no randomness). The
		// assignment writes only the slot's own link state; a departed
		// identity's aborts are already in the log and land first at the
		// merge, so reassigning before they apply is state-equivalent.
		s.xfer.AssignClass(id, r)
	}
	s.joins[id] = round
	p.cat = metrics.Newcomer
	p.catChange = addClamped(round, metrics.CategoryBound(metrics.Newcomer))
	life := s.cfg.Profiles.SampleLifetime(r, prof)
	p.death = addClamped(round, life)
	p.online = r.Bool(p.avail)
	s.forgetHistory(id)
	s.recordSession(round, id, p.online)
	p.toggle = addClamped(round, s.cfg.avail.SessionLength(r, p.avail, p.online, round))
	s.effect(w, round, effect{kind: effJoin, id: int32(id), prof: int32(prof), online: p.online})
}

// setOnline flips a population peer's session state. A worker stages
// the ledger half into its shard's flip batch, which the merge commits
// before any logged effect; a sequential phase applies it at once.
func (s *Simulation) setOnline(w *worker, round int64, id overlay.PeerID, p *peer, online bool) {
	p.online = online
	s.recordSession(round, id, online)
	if w != nil {
		s.led.StageOnline(w.flips, id, online)
	} else {
		s.led.SetOnline(id, online)
	}
	s.effect(w, round, effect{kind: effFlip, id: int32(id), prof: p.profile, online: online})
}

// recordSession feeds a session transition into the slot's availability
// history, when histories are kept. Rounds advance monotonically under
// engine control, so a record failure is a bug.
func (s *Simulation) recordSession(round int64, id overlay.PeerID, online bool) {
	if s.hist != nil {
		if err := s.hist[id].RecordTransition(round, online); err != nil {
			panic(err)
		}
	}
}

// forgetHistory starts a slot's observations over when a fresh identity
// takes it: they belong to identities, not slots.
func (s *Simulation) forgetHistory(id overlay.PeerID) {
	if s.hist != nil {
		s.hist[id].Reset()
	}
}

// effect hands a per-event body's shared half to the worker's log, or —
// with no worker: a sequential phase — applies it at once.
func (s *Simulation) effect(w *worker, round int64, e effect) {
	if w == nil {
		s.applyEffect(round, e)
		return
	}
	w.effects = append(w.effects, e)
}

// merge commits the round's staged session flips, then applies its
// deferred effects in canonical (shard, log) order — ascending slot
// order globally, since visits are partitioned ascending. Watcher
// crossings fired here arm slots through the re-installed wake hook
// into next round's walk.
//
// Committing every flip first leaves the ledger's counters exactly as
// applying each flip at its place in the log would: an owner that dies
// or loses its archive this round takes its flip deltas and then
// DropOwner zeroes its count; a dying host never flips in the round it
// dies, since its replacement's toggle is at least a round later; and a
// replacement's join finds its reverse list emptied by RemoveHost.
// Crossings are net over the batch: an owner that would have dipped
// below k′ and recovered inside the merge is not armed, which is sound
// because the armed set already holds every slot whose WantsStep is
// true.
func (s *Simulation) merge(round int64) {
	s.led.CommitFlips(s.flips)
	for i := range s.workers {
		w := &s.workers[i]
		s.deaths += w.deaths
		for c, d := range w.catDelta {
			s.catPop[c] += d
		}
		for _, e := range w.effects {
			s.applyEffect(round, e)
		}
		for _, cp := range w.cal {
			s.cal.push(cp.slot, cp.round)
		}
		for _, v := range w.visits {
			s.visitQ.push(v)
		}
	}
}

// applyEffect performs one effect's shared-state mutations and probe
// emissions.
func (s *Simulation) applyEffect(round int64, e effect) {
	id := overlay.PeerID(e.id)
	switch e.kind {
	case effDeath:
		for _, pr := range s.dispatch[evDeath] {
			pr.OnDeath(e.peerEvent(round))
		}
		s.emitChurn(round, id, churn.EvLeave, int(e.prof))
		s.led.RemovePeer(id)
		if s.xfer != nil {
			// Death kills every transfer the peer touched, its restore
			// included.
			s.emitAborts(round, s.xfer.AbortPeer(id))
		}
		s.redunReset(id)
	case effJoin:
		s.led.SetOnline(id, e.online)
		s.emitChurn(round, id, churn.EvJoin, int(e.prof))
		if e.online {
			s.emitChurn(round, id, churn.EvOnline, int(e.prof))
		} else {
			s.emitChurn(round, id, churn.EvOffline, int(e.prof))
		}
	case effFlip:
		// The ledger half was committed already (see merge) or, on a
		// sequential phase, applied by setOnline.
		kind := churn.EvOffline
		if e.online {
			kind = churn.EvOnline
		}
		s.emitChurn(round, id, kind, int(e.prof))
		if s.xfer != nil {
			// Session flips interrupt the flows they carry: offline
			// suspends every transfer touching the peer, online resumes
			// those whose other endpoint is up. Consumes no randomness.
			if e.online {
				s.xfer.ResumePeer(id, round, s.peerOnline)
			} else {
				s.xfer.SuspendPeer(id, round)
			}
		}
	case effHardLoss:
		if s.xfer != nil {
			// The in-flight blocks (and any restore) belong to the
			// abandoned archive; transfers the slot merely hosts live on.
			s.emitAborts(round, s.xfer.AbortOwner(id))
		}
		s.led.DropOwner(id)
		// The re-encoded archive is a fresh object: its redundancy target
		// restarts at the policy's initial value.
		s.redunReset(id)
		for _, pr := range s.dispatch[evHardLoss] {
			pr.OnHardLoss(e.peerEvent(round))
		}
	}
}

// emitMaintOutcome dispatches one maintenance step outcome to the
// probes.
func (s *Simulation) emitMaintOutcome(round int64, id overlay.PeerID, res maintenance.StepResult) {
	switch res.Outcome {
	case maintenance.OutcomeRepaired, maintenance.OutcomeInitialDone:
		re := RepairEvent{
			PeerEvent: s.peerEvent(round, id),
			Initial:   res.Outcome == maintenance.OutcomeInitialDone,
			Uploaded:  res.Uploaded,
			Dropped:   res.Dropped,
			Elapsed:   round - s.maint.EpisodeStart(id),
		}
		for _, pr := range s.dispatch[evRepair] {
			pr.OnRepair(re)
		}
	case maintenance.OutcomeStalled:
		ev := s.peerEvent(round, id)
		for _, pr := range s.dispatch[evStall] {
			pr.OnStall(ev)
		}
		if res.OutageStarted {
			for _, pr := range s.dispatch[evOutage] {
				pr.OnOutage(ev)
			}
		}
	case maintenance.OutcomeCanceled:
		s.cancels++
		ev := s.peerEvent(round, id)
		for _, pr := range s.dispatch[evCancel] {
			pr.OnCancel(ev)
		}
	}
}
