// The v3 engine (Config.Walk = WalkV3): a shard-parallel churn walk and
// maintenance phase behind a deterministic cross-shard merge.
//
// The v1 walk is pinned to the historical scan's single rng stream, so
// it cannot parallelise (see the package comment's rng-order invariant
// and shard.go's v2 note on why). v3 breaks that dependency by
// construction instead of by violation:
//
//   - Randomness is per slot, not global: slot i draws every walk and
//     maintenance-plan decision from its own stream, seeded
//     rng.Derive(Config.Seed, v3SlotStreamBase+i). A slot's draw
//     sequence depends only on its own event history, never on which
//     goroutine ran it or what other slots did this round, so draw
//     order is reproducible at any shard count.
//   - Walk-time mutation is slot-local only: a visiting worker touches
//     its slot's peer record, availability history, timers, scheduler
//     link class and maintenance peerState — all owned exclusively by
//     the slot's shard. Every shared-state effect (ledger membership
//     and session flips, transfer aborts/suspends, redundancy resets,
//     probe events) is recorded in the shard's effect log instead.
//   - The merge applies the effect logs at the round barrier in
//     canonical (shard index, log order) order — which, because visits
//     are partitioned in ascending slot order, is ascending slot order
//     globally. Watcher crossings, quota releases and probe events
//     therefore fire in one deterministic sequence, independent of
//     goroutine scheduling.
//   - Maintenance splits into a parallel plan phase (each shard plans
//     its own online actors against the frozen post-merge round state,
//     drawing from the owners' slot streams — see
//     maintenance.PlanStep) and a sequential apply phase in the same
//     canonical order, which re-validates only the genuinely contended
//     resource: host quota.
//
// The v3 invariant: a v3 trajectory is a pure function of the config —
// bit-identical at every shard count S >= 1, on every machine, under
// any scheduler. S=1 runs the same code path as S=k, so walk3_test.go
// pins v3 digests once and holds every S to them, the way
// shard_test.go holds v2 to v1.
//
// v3 is deliberately NOT draw-compatible with v1 — that is why the
// goldens are versioned. Beyond the stream split, four semantic
// differences are accepted and deterministic:
//
//   - a watcher crossing caused mid-walk arms its slot for the NEXT
//     round's walk (v1 could catch it the same round if the armed slot
//     lay ahead of the walk position);
//   - walk-time reads of shared state (loss checks, WantsStep) see the
//     frozen pre-walk ledger rather than v1's mid-walk view;
//   - the maintenance phase runs actors in ascending slot order rather
//     than v1's global shuffle (the shuffle's draw would otherwise
//     serialise the round), and plans against frozen quota — an owner
//     that loses a quota race at apply time retries next round;
//   - the decode-point pool refresh sees the pre-drop host set.

package sim

import (
	"math"
	"sync"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/maintenance"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// v3SlotStreamBase is the rng.Derive index base of the per-slot
// streams: slot i draws from Derive(seed, v3SlotStreamBase+i). The
// offset keeps the slot index space disjoint from the shard scratch
// streams (small indexes) and the adaptive-redundancy stream
// (redunStreamIndex) under the same seed.
const v3SlotStreamBase uint64 = 1 << 33

// v3EntryKind discriminates a logged cross-shard effect.
type v3EntryKind uint8

const (
	// v3EntDeath is a departure: the death/leave events, the ledger
	// removal and the transfer aborts of the departed identity.
	v3EntDeath v3EntryKind = iota
	// v3EntJoin is the replacement (or initial) identity going live:
	// ledger session state and the join/online churn events.
	v3EntJoin
	// v3EntFlip is a session toggle: ledger session state, the churn
	// event and the transfer suspend/resume.
	v3EntFlip
	// v3EntHardLoss is a detected permanent archive loss: the owner's
	// transfer aborts, the ledger release of the surviving placements,
	// the redundancy reset and the hard-loss event.
	v3EntHardLoss
)

// v3Entry is one deferred shared-state effect, captured at visit time
// with the identity attributes the v1 engine would have emitted with.
type v3Entry struct {
	kind   v3EntryKind
	id     int32
	prof   int32
	cat    metrics.Category
	online bool
}

// v3CalPush is a deferred calendar insertion: the bucket-queue arena is
// shared, so workers log their post-visit reschedules and the merge
// pushes them.
type v3CalPush struct {
	slot  int32
	round int64
}

// v3Worker is one shard's accumulator for a round: the effect log, the
// slots to re-visit next round, the deferred calendar pushes, the
// shard's online actors, and the population deltas folded into the
// canonical counters at the merge.
type v3Worker struct {
	entries  []v3Entry
	visits   []int32
	cal      []v3CalPush
	actors   []overlay.PeerID
	catDelta [metrics.NumCategories]int64
	deaths   int64
	ws       *maintenance.Workspace
}

// reset clears the worker for a new round, keeping capacity.
func (w *v3Worker) reset() {
	w.entries = w.entries[:0]
	w.visits = w.visits[:0]
	w.cal = w.cal[:0]
	w.actors = w.actors[:0]
	for c := range w.catDelta {
		w.catDelta[c] = 0
	}
	w.deaths = 0
}

// v3State is the v3 engine's per-run state.
type v3State struct {
	n       int        // shard count (>= 1)
	streams []rng.Rand // one derived stream per population slot
	visits  []int32    // scratch: the round's frozen walk set, ascending
	workers []v3Worker
}

// newV3State builds the v3 engine state. The per-slot streams are held
// by value in one contiguous array: a million-peer run seeds a million
// streams with zero allocations beyond the array itself.
func newV3State(s *Simulation) *v3State {
	cfg := s.cfg
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	v3 := &v3State{
		n:       n,
		streams: make([]rng.Rand, cfg.NumPeers),
		workers: make([]v3Worker, n),
	}
	for i := range v3.streams {
		v3.streams[i].Reseed(rng.Derive(cfg.Seed, v3SlotStreamBase+uint64(i)))
	}
	slots := cfg.NumPeers + len(cfg.Observers)
	for i := range v3.workers {
		v3.workers[i].ws = maintenance.NewWorkspace(slots)
	}
	return v3
}

// stepRoundV3 advances one round under the v3 engine. Phase order
// matches v1 (shocks, restores, replay, walk, barrier, transfer drain,
// redundancy evaluation, warm, maintenance, observers, accounting);
// the walk and the maintenance plan run one goroutine per shard, with
// the effect merge and the plan apply forming the deterministic
// barriers between them.
func (s *Simulation) stepRoundV3() {
	round := s.round
	v3 := s.v3
	s.curQ, s.nextQ = s.nextQ, s.curQ
	s.walkPos = -1
	pt := s.phaseStart()

	// Sequential pre-phases on the canonical stream, identical to v1.
	// Wakes they cause land in curQ (walkPos = -1) and join this
	// round's walk set.
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
	// ascending slot order (the queue dedups). From here to the end of
	// the round any visit request targets the next round.
	s.due = s.cal.drain(round, s.sched, s.due[:0])
	for _, slot := range s.due {
		s.curQ.push(slot)
	}
	v3.visits = v3.visits[:0]
	for !s.curQ.empty() {
		v3.visits = append(v3.visits, s.curQ.pop())
	}
	s.walkPos = math.MaxInt32

	// Parallel walk: one worker per shard over its contiguous segment
	// of the walk set. Workers mutate only slot-local state and defer
	// every shared-state effect to their logs; the Maintainer's wake
	// hook is detached because a worker collects its own armed slots
	// and merge-time crossings re-install the hook first.
	s.maint.SetWake(nil)
	var wg sync.WaitGroup
	cut := 0
	for i := 0; i < v3.n; i++ {
		w := &v3.workers[i]
		w.reset()
		_, hi := s.shardRange(i)
		lo := cut
		for cut < len(v3.visits) && int(v3.visits[cut]) < hi {
			cut++
		}
		seg := v3.visits[lo:cut]
		if len(seg) == 0 {
			continue
		}
		wg.Add(1)
		go func(w *v3Worker, seg []int32) {
			defer wg.Done()
			for _, slot := range seg {
				s.visitSlotV3(w, round, overlay.PeerID(slot))
			}
		}(w, seg)
	}
	wg.Wait()
	s.maint.SetWake(s.requestVisit)
	s.phaseLap(&s.phases.Walk, &pt)

	// The deterministic merge: canonical counters, effect logs,
	// deferred reschedules and next-round visits, in (shard, log)
	// order — globally, ascending slot order.
	s.v3Merge(round)
	s.phaseLap(&s.phases.Merge, &pt)

	// Transfer drain and redundancy evaluation: sequential, as in v1.
	if s.xfer != nil {
		s.stepTransfers(round)
	}
	s.phaseLap(&s.phases.TransferDrain, &pt)
	if s.redun != nil {
		s.stepRedundancy(round)
	}
	s.phaseLap(&s.phases.Evaluation, &pt)

	// Maintenance: parallel plan per shard against the frozen round
	// state, then sequential apply in canonical order (see
	// maintenance/plan.go for the soundness argument).
	totalActors := 0
	for i := range v3.workers {
		v3.workers[i].ws.Reset()
		totalActors += len(v3.workers[i].actors)
	}
	if totalActors > 0 {
		if s.warmWorthwhileN(totalActors) {
			s.warmCaches()
		}
		for i := 0; i < v3.n; i++ {
			w := &v3.workers[i]
			if len(w.actors) == 0 {
				continue
			}
			wg.Add(1)
			go func(w *v3Worker) {
				defer wg.Done()
				for _, id := range w.actors {
					s.maint.PlanStep(&s.v3.streams[id], id, w.ws)
				}
			}(w)
		}
		wg.Wait()
		for i := 0; i < v3.n; i++ {
			w := &v3.workers[i]
			for j := range w.ws.Results {
				pr := &w.ws.Results[j]
				res := s.maint.ApplyPlan(w.ws, pr)
				s.emitMaintOutcome(round, pr.Owner, res)
			}
		}
	}

	// Observers act after the population, sequentially on the
	// canonical stream, exactly as in v1.
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

// visitSlotV3 runs one walked slot's round body on its shard's worker:
// the same event structure as visitSlot, with all draws on the slot's
// own stream and all shared-state effects deferred to the worker log.
func (s *Simulation) visitSlotV3(w *v3Worker, round int64, id overlay.PeerID) {
	p := &s.peers[id]
	r := &s.v3.streams[id]
	if s.sched[id] == round {
		if s.replay != nil {
			if round >= p.catChange {
				s.promoteV3(w, p)
			}
		} else {
			if round >= p.death {
				s.replacePeerV3(w, id, p, round, r)
			} else if round >= p.catChange {
				s.promoteV3(w, p)
			}
			if round >= p.toggle {
				next := addClamped(round, churn.SessionLengthAt(s.cfg.Avail, r, p.avail, !p.online, round))
				s.setOnlineV3(w, round, id, p, !p.online)
				p.toggle = next
			}
		}
		s.rescheduleAfterVisitV3(w, id, round)
	}

	// Loss detection reads the frozen pre-walk ledger (a same-round
	// delivery or host death is observed next round — deterministic at
	// any shard count). The slot-local half of the reset runs here; the
	// ledger release, transfer aborts, redundancy reset and the event
	// go through the merge.
	if s.maint.TakeLossCheck(id) && s.maint.LostArchive(id) {
		w.entries = append(w.entries, v3Entry{kind: v3EntHardLoss, id: int32(id), prof: p.profile, cat: p.cat})
		s.maint.ResetArchiveLocal(id)
	}

	if s.maint.Armed(id) {
		if !s.maint.WantsStep(id) {
			s.maint.Disarm(id)
		} else {
			if p.online {
				w.actors = append(w.actors, id)
			}
			w.visits = append(w.visits, int32(id))
		}
	}
}

// promoteV3 is promote with the category delta on the worker.
func (s *Simulation) promoteV3(w *v3Worker, p *peer) {
	w.catDelta[p.cat]--
	p.cat++
	w.catDelta[p.cat]++
	p.catChange = addClamped(p.join, metrics.CategoryBound(p.cat))
}

// replacePeerV3 handles a departure on the worker: the slot-local
// mutations (table generation bump, maintenance reset, fresh identity)
// run inline; the ledger removal, transfer aborts, redundancy reset and
// the death/leave events become an entDeath followed by the new
// identity's entJoin.
func (s *Simulation) replacePeerV3(w *v3Worker, id overlay.PeerID, p *peer, round int64, r *rng.Rand) {
	w.entries = append(w.entries, v3Entry{kind: v3EntDeath, id: int32(id), prof: p.profile, cat: p.cat})
	w.deaths++
	w.catDelta[p.cat]--
	w.catDelta[metrics.Newcomer]++
	s.tab.Bump(id)
	// The wake hook is detached, so Reset's re-arm is slot-local; the
	// worker's own Armed check below queues the slot.
	s.maint.Reset(id)
	profile := int(p.profile)
	if s.cfg.ResampleProfileOnReplace {
		profile = -1
	}
	s.initPeerV3(w, id, round, profile, r)
}

// initPeerV3 is initPeer on the slot's own stream, with the ledger
// session write and the join/online events deferred as an entJoin. The
// draw order within the slot's stream matches initPeer draw for draw.
func (s *Simulation) initPeerV3(w *v3Worker, id overlay.PeerID, round int64, profile int, r *rng.Rand) {
	p := &s.peers[id]
	prof := profile
	if prof < 0 {
		prof = s.cfg.Profiles.SampleIndex(r)
	}
	p.profile = int32(prof)
	p.avail = s.cfg.Profiles.Profile(prof).Availability
	if s.xfer != nil {
		// The class assignment writes only the slot's own link state; the
		// old identity's aborts are already in the log and land first at
		// the merge, so reassigning before they apply is state-equivalent.
		s.xfer.sched.AssignClass(id, s.xfer.sched.Params().SampleIndex(r))
	}
	p.join = round
	p.cat = metrics.Newcomer
	p.catChange = addClamped(round, metrics.CategoryBound(metrics.Newcomer))
	life := s.cfg.Profiles.SampleLifetime(r, prof)
	p.death = addClamped(round, life)
	p.online = r.Bool(p.avail)
	// Histories are slot-owned during the walk: mutate directly, no op
	// log (the v1 sharded path's logging flag stays off under v3).
	s.hist[id].Reset()
	s.invalidateSlot(id)
	if err := s.hist[id].RecordTransition(round, p.online); err != nil {
		panic(err)
	}
	p.toggle = addClamped(round, churn.SessionLengthAt(s.cfg.Avail, r, p.avail, p.online, round))
	w.entries = append(w.entries, v3Entry{kind: v3EntJoin, id: int32(id), prof: int32(prof), online: p.online})
}

// setOnlineV3 flips the slot's session state locally and defers the
// ledger write, the churn event and the transfer suspend/resume as an
// entFlip.
func (s *Simulation) setOnlineV3(w *v3Worker, round int64, id overlay.PeerID, p *peer, online bool) {
	p.online = online
	if err := s.hist[id].RecordTransition(round, online); err != nil {
		panic(err)
	}
	s.maint.InvalidateScore(id) // the flip mutated the monitored history
	w.entries = append(w.entries, v3Entry{kind: v3EntFlip, id: int32(id), prof: p.profile, online: online})
}

// rescheduleAfterVisitV3 is rescheduleAfterVisit with the calendar push
// deferred to the merge (the bucket arena is shared across shards).
func (s *Simulation) rescheduleAfterVisitV3(w *v3Worker, id overlay.PeerID, round int64) {
	next := s.nextWake(&s.peers[id])
	if next <= round {
		next = round + 1
	}
	s.sched[id] = next
	if next < s.cfg.Rounds {
		w.cal = append(w.cal, v3CalPush{slot: int32(id), round: next})
	}
}

// v3Merge applies the round's deferred effects in canonical (shard,
// log) order — ascending slot order globally, since visits are
// partitioned ascending. Watcher crossings fired here arm slots through
// the re-installed wake hook into next round's walk (walkPos is past
// the end).
func (s *Simulation) v3Merge(round int64) {
	for i := range s.v3.workers {
		w := &s.v3.workers[i]
		s.deaths += w.deaths
		for c, d := range w.catDelta {
			s.catPop[c] += d
		}
		for _, e := range w.entries {
			s.applyV3Entry(round, e)
		}
		for _, cp := range w.cal {
			s.cal.push(cp.slot, cp.round)
		}
		for _, v := range w.visits {
			s.nextQ.push(v)
		}
	}
}

// applyV3Entry performs one logged effect's shared-state mutations and
// probe emissions, in exactly the relative order the v1 engine applies
// them in.
func (s *Simulation) applyV3Entry(round int64, e v3Entry) {
	id := overlay.PeerID(e.id)
	switch e.kind {
	case v3EntDeath:
		dead := PeerEvent{Round: round, Peer: int(e.id), Category: e.cat, Profile: int(e.prof)}
		for _, pr := range s.dispatch[evDeath] {
			pr.OnDeath(dead)
		}
		s.emitChurn(round, id, churn.EvLeave, int(e.prof))
		s.led.RemovePeer(id)
		if s.xfer != nil {
			s.xferAbortAll(round, id)
		}
		s.redunReset(id)
	case v3EntJoin:
		s.led.SetOnline(id, e.online)
		s.emitChurn(round, id, churn.EvJoin, int(e.prof))
		if e.online {
			s.emitChurn(round, id, churn.EvOnline, int(e.prof))
		} else {
			s.emitChurn(round, id, churn.EvOffline, int(e.prof))
		}
	case v3EntFlip:
		s.led.SetOnline(id, e.online)
		kind := churn.EvOffline
		if e.online {
			kind = churn.EvOnline
		}
		s.emitChurn(round, id, kind, int(e.prof))
		if s.xfer != nil {
			if e.online {
				s.xferResume(round, id)
			} else {
				s.xferSuspend(round, id)
			}
		}
	case v3EntHardLoss:
		if s.xfer != nil {
			s.xferAbortOwner(round, id)
		}
		s.led.DropOwner(id)
		s.redunReset(id)
		ev := PeerEvent{Round: round, Peer: int(e.id), Category: e.cat, Profile: int(e.prof)}
		for _, pr := range s.dispatch[evHardLoss] {
			pr.OnHardLoss(ev)
		}
	}
}

// emitMaintOutcome dispatches one maintenance step outcome to the
// probes — the shared tail of the v1 maintenance loop and the v3 apply
// loop.
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
