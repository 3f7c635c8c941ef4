// Package sim is the event-driven simulation engine, the PeerSim
// equivalent the paper's evaluation runs on.
//
// Semantics follow the paper's section 3.1: time advances in rounds of
// one hour; within a round every peer may execute protocol code,
// sequentially, in an order chosen randomly per round; departures are
// replaced immediately and the departed peer's blocks disappear at
// once.
//
// # The event-driven core
//
// The engine never scans the population. Each slot carries one
// authoritative wake time — the earliest of its death, category-change
// and session-toggle timers — held in a calendar bucket queue; a
// round's walk visits, in ascending slot id, only the union of the
// slots with due timers, the maintenance active set, and the slots
// flagged for an archive-loss check. The active set is maintained
// incrementally: the overlay ledger's Watcher notifications
// (visible-below-threshold, alive-below-k crossings, emitted from its
// existing incremental counters) arm slots in the Maintainer the
// moment a crossing happens, and the engine disarms a slot when a
// visit finds its work drained. Per-round cost is therefore
// proportional to the number of events — session flips, deaths,
// promotions, peers with active maintenance work — not to NumPeers: a
// quiescent round costs tens of nanoseconds at any population size.
//
// # The rng-order invariant
//
// Reproducibility pins the engine to the draw order of the historical
// full-population scan, and every engine change must preserve it: due
// events drain in ascending slot id within a round; each visit runs
// the per-slot body in scan order (death, else category promotion,
// then toggle, then the loss check, then actor collection); a state
// change caused at walk position j is observed by slot i's checks this
// round iff i > j; and spurious wakes, stale loss flags and
// armed-but-idle visits consume no randomness and emit no events. The
// golden digests in determinism_test.go hold the engine to the scan
// engine's event stream bit for bit under iid, diurnal, shock and
// replay churn. This invariant governs the default (v1) walk; the v3
// engine (Config.Walk = WalkV3, see walk3.go) instead derives one rng
// stream per slot and merges cross-shard effects deterministically at
// the round barrier, trading v1 draw compatibility for a parallel walk
// under its own versioned digest set.
//
// # Measurement
//
// Measurement is decoupled from the engine through the Probe interface:
// the engine emits every protocol event (churn, repairs, outages,
// losses, round boundaries) to an ordered list of probes, and the
// metrics collector, observer tracker and churn-trace recorder that
// populate Result are themselves probes attached by New. Custom
// instrumentation attaches through Config.Probes and observes the exact
// same event stream; probes consume no randomness, so attaching them
// never perturbs a run. Runs are cancellable mid-flight through
// RunContext.
//
// Dispatch is compiled at New: probes declare the events they observe
// through the optional EventDeclarer interface, and each event kind
// gets its own dispatch slice — emitting an event touches only the
// probes subscribed to it, and an event nobody observes costs zero
// interface calls. Probes without a declaration observe everything.
// Attachment order is preserved within every kind, so each probe sees
// its subscribed events in exactly the order the engine emits them.
//
// The engine also keeps one per-round cache off the measurement path:
// a slot's pure policy score (in the Maintainer) is computed at most
// once per round regardless of how many repairing peers pool it,
// invalidated on occupant replacement and session flips. It holds no
// randomness and changes no results. A slot's selection.View is not
// cached — building one is two loads and a subtraction, and the
// candidate loop asks for an age (simEnv.Age) far more often than for a
// view. ARCHITECTURE.md's "Hot path & caching" section has the full
// inventory.
package sim

import (
	"context"
	"math"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/maintenance"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/transfer"
)

// never is a round sentinel beyond any simulation horizon.
const never = math.MaxInt64 / 4

// peer is the engine-side state of one population slot.
type peer struct {
	profile   int32
	cat       metrics.Category
	online    bool
	avail     float64
	join      int64 // round the current occupant joined
	death     int64 // round the occupant departs (never for immortals)
	toggle    int64 // next session flip
	catChange int64 // next category promotion
}

// Result aggregates a finished run.
type Result struct {
	Config    Config
	Collector *metrics.Collector
	Observers *metrics.ObserverTracker
	Trace     *churn.Trace
	// Deaths is the number of departures (and replacements).
	Deaths int64
	// Cancels counts repairs aborted after visibility recovered.
	Cancels int64
	// FinalPlacements is the block count in the system at the end.
	FinalPlacements int
	// FinalIncluded is how many peers had a complete archive at the end.
	FinalIncluded int
	// Phases is the per-phase wall-time breakdown, non-nil only when
	// Config.PhaseTimes asked for it.
	Phases *PhaseTimes
}

// Simulation is a configured run. Create with New, execute with Run.
type Simulation struct {
	cfg   Config
	r     *rng.Rand
	led   *overlay.Ledger
	tab   *overlay.Table
	maint *maintenance.Maintainer
	col   *metrics.Collector
	obs   *metrics.ObserverTracker

	peers    []peer
	obsSpecs []ObserverSpec
	round    int64
	catPop   [metrics.NumCategories]int64
	deaths   int64
	cancels  int64
	trace    *churn.Trace
	probes   []Probe
	replay   *replayScript // non-nil: churn comes from Config.Replay
	xfer     *xferState    // non-nil: bandwidth scheduling or restore demand enabled
	redun    *redunState   // non-nil: adaptive redundancy policy enabled

	// dispatch holds the probe list compiled per event kind from the
	// probes' EventDeclarer declarations: emitting an event iterates
	// only the probes that observe it, and an event nobody observes is
	// a loop over an empty slice — zero interface calls. Attachment
	// order is preserved within each kind, so every probe still sees
	// its subscribed events in exactly the order the engine emits them.
	dispatch [numProbeEvents][]Probe

	// hist is the monitoring substrate: one availability history per
	// population slot over the last AcceptHorizon rounds (the paper's
	// "any peer can query the availability of any other peer ... for
	// example the last 90 days"). Maintained by the engine on every
	// session transition; consumes no randomness. Reset when the slot's
	// occupant is replaced — observations belong to identities, not
	// slots. Held by value in one array: views point into it.
	hist []monitor.IntervalHistory

	// Event-driven core: each population slot has one authoritative
	// wake time (sched, the earliest of its death/category/toggle
	// timers) tracked in the calendar bucket queue, and each round's
	// walk visits — in ascending slot order — the union of the slots
	// with due timers, the maintenance active set, and the slots
	// flagged for an archive-loss check. walkPos is the slot currently
	// being visited: a visit request at or before it lands in nextQ
	// (the next round's walk), one beyond it in curQ, reproducing
	// exactly what the historical full-population scan saw at each loop
	// position.
	cal     *calendar
	sched   []int64 // per slot: next wake round (never = no timer)
	curQ    *visitQueue
	nextQ   *visitQueue
	walkPos int32
	due     []int32 // scratch: calendar drain output

	actors []overlay.PeerID // scratch: peers acting this round

	// shards is the sharded-engine state (Config.Shards >= 2): the
	// draw-free phases fan out across slot-partitioned workers under
	// the v2 rng-order invariant (see shard.go). nil runs the
	// historical sequential path.
	shards *shardState

	// v3 is the shard-parallel walk/maintenance engine state
	// (Config.Walk = WalkV3, see walk3.go). nil runs the v1 walk.
	v3 *v3State

	// phases accumulates the per-phase wall-time breakdown; recording
	// is active only when Config.PhaseTimes is set (see phasetime.go).
	phases *PhaseTimes
}

// New validates the config and builds a ready-to-run simulation.
func New(cfg Config) (*Simulation, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	slots := cfg.NumPeers + len(cfg.Observers)
	s := &Simulation{
		cfg:      cfg,
		r:        rng.New(cfg.Seed),
		led:      overlay.NewLedger(slots, cfg.Quota),
		tab:      overlay.NewTable(slots),
		col:      metrics.NewCollector(cfg.Profiles.Len(), cfg.SampleEvery, cfg.Warmup),
		peers:    make([]peer, cfg.NumPeers),
		obsSpecs: cfg.Observers,
		hist:     make([]monitor.IntervalHistory, cfg.NumPeers),
		cal:      newCalendar(),
		sched:    make([]int64, cfg.NumPeers),
		curQ:     newVisitQueue(cfg.NumPeers),
		nextQ:    newVisitQueue(cfg.NumPeers),
		walkPos:  math.MaxInt32,
	}
	// Preallocate the adjacency at its steady-state high-water mark so
	// the placement hot path never grows a slice: n blocks per owner,
	// quota per host plus one unmetered block per observer.
	s.led.Reserve(cfg.TotalBlocks, int(cfg.Quota)+len(cfg.Observers))
	for i := range s.sched {
		s.sched[i] = never
	}
	for i := range s.hist {
		s.hist[i] = *monitor.NewIntervalHistory(cfg.AcceptHorizon)
	}
	names := make([]string, len(cfg.Observers))
	for i, o := range cfg.Observers {
		names[i] = o.Name
	}
	s.obs = metrics.NewObserverTracker(names)
	// The built-in measurement layer attaches as probes, first in
	// dispatch order so Result sees events before custom probes do.
	s.probes = append(s.probes, collectorProbe{col: s.col}, observerProbe{obs: s.obs})
	if cfg.RecordTrace {
		s.trace = &churn.Trace{}
		s.probes = append(s.probes, traceProbe{trace: s.trace})
	}
	s.probes = append(s.probes, cfg.Probes...)
	// Compile the probe list into per-event dispatch slices (see
	// EventDeclarer): probes without a declaration observe everything.
	for _, p := range s.probes {
		set := probeEvents(p)
		for k := 0; k < numProbeEvents; k++ {
			if set&(1<<k) != 0 {
				s.dispatch[k] = append(s.dispatch[k], p)
			}
		}
	}
	s.maint = maintenance.New(maintenance.Params{
		TotalBlocks:          cfg.TotalBlocks,
		DataBlocks:           cfg.DataBlocks,
		RepairThreshold:      cfg.RepairThreshold,
		PoolSamplePerRound:   cfg.PoolSamplePerRound,
		UploadBudgetPerRound: cfg.UploadBudgetPerRound,
		DropOffline:          cfg.DropOffline,
		CancelOnRecover:      cfg.CancelOnRecover,
		RepairDelay:          cfg.RepairDelay,
	}, s.led, s.tab, cfg.Policy, (*simEnv)(s))
	s.maint.SetWake(s.requestVisit)
	s.maint.EnableScoreCache() // no-op unless the policy's Score is pure
	if cfg.Redundancy != nil && !cfg.Redundancy.Static() {
		// A static policy allocates nothing: the engine stays literally
		// the pre-adaptive engine, draw for draw (TestFixedModeGoldenDigests
		// pins this).
		s.redun = newRedunState(cfg)
		s.maint.SetRedundancy((*simRedun)(s))
	}
	if cfg.Shards >= 2 {
		s.shards = newShardState(cfg)
	}
	if cfg.Walk == WalkV3 {
		if s.shards == nil {
			// v3 runs the sharded code path (warm, inclusion scan, range
			// partitioning) even at a single shard, so S=1 and S=k execute
			// identical code.
			one := cfg
			one.Shards = 1
			s.shards = newShardState(one)
		}
		s.v3 = newV3State(s)
	}
	s.phases = &PhaseTimes{}

	if cfg.Bandwidth != nil || len(cfg.Restores) > 0 {
		// The transfer machinery exists only when asked for; without it
		// the engine is literally the pre-transfer engine. Restore-only
		// configs schedule downloads against the degenerate instant mix.
		params := cfg.Bandwidth
		if params == nil {
			params, err = transfer.InstantParams().Validate()
			if err != nil {
				panic(err) // static input; cannot fail
			}
		}
		s.xfer = &xferState{
			// Scheduler slots cover the population only: observers are
			// unmetered instrumentation and never reach the scheduler.
			sched:     transfer.NewScheduler(params, cfg.NumPeers),
			restore:   make([]int64, cfg.NumPeers),
			bandwidth: !params.Instant(),
		}
		for i := range s.xfer.restore {
			s.xfer.restore[i] = -1
		}
		if s.xfer.bandwidth {
			s.maint.SetTransfers((*simXfer)(s))
		}
	}

	if cfg.Replay != nil {
		// Replayed churn consumes no randomness: slots start dormant and
		// the trace's round-0 joins populate them at the top of Run.
		script, err := compileReplay(cfg.Replay, cfg.NumPeers)
		if err != nil {
			return nil, err
		}
		s.replay = script
		for id := range s.peers {
			p := &s.peers[id]
			p.cat = metrics.Newcomer
			p.death = never
			p.toggle = never
			p.catChange = never
		}
	} else {
		for id := range s.peers {
			s.initPeer(overlay.PeerID(id), 0, -1)
			s.catPop[metrics.Newcomer]++
			s.scheduleEarlier(overlay.PeerID(id), s.nextWake(&s.peers[id]))
		}
	}
	// Every slot starts armed (initial upload pending), so the first
	// round's walk visits the whole population once; walkPos is past
	// the end, so the requests land in the queue round 0 drains.
	for id := 0; id < cfg.NumPeers; id++ {
		s.requestVisit(overlay.PeerID(id))
	}
	for i := range s.obsSpecs {
		s.maint.SetUnmetered(s.observerSlot(i), true)
	}
	return s, nil
}

// requestVisit asks the walk to visit a population slot: this round if
// the walk has not yet passed it, next round otherwise. Observer slots
// are ignored — they are polled in their own phase. This is also the
// Maintainer's wake hook, so arming a slot (a ledger threshold
// crossing, a death reset) schedules its visit automatically.
func (s *Simulation) requestVisit(id overlay.PeerID) {
	if int(id) >= s.cfg.NumPeers {
		return
	}
	if int32(id) > s.walkPos {
		s.curQ.push(int32(id))
	} else {
		s.nextQ.push(int32(id))
	}
}

// scheduleEarlier tightens a slot's wake time: a no-op when the slot
// already wakes at or before round. Timers that move later instead
// leave a spurious early wake behind, which the visit resolves by
// rescheduling — never by consuming randomness.
func (s *Simulation) scheduleEarlier(id overlay.PeerID, round int64) {
	if round >= s.sched[id] {
		return
	}
	s.sched[id] = round
	if round < s.cfg.Rounds {
		s.cal.push(int32(id), round)
	}
}

// nextWake returns the earliest of a slot's timers. In replay mode
// deaths and sessions come from the trace, so only the category timer
// counts. Any new per-slot timer must be folded in here — New and the
// post-visit reschedule both derive wake times from this single place.
func (s *Simulation) nextWake(p *peer) int64 {
	if s.replay != nil {
		return p.catChange
	}
	next := p.death
	if p.catChange < next {
		next = p.catChange
	}
	if p.toggle < next {
		next = p.toggle
	}
	return next
}

// rescheduleAfterVisit recomputes a slot's wake time from its timers
// after its due events were processed. Anything still (or again) due
// is deferred to the next round, exactly as the scan engine's one
// check per slot per round did.
func (s *Simulation) rescheduleAfterVisit(id overlay.PeerID, round int64) {
	next := s.nextWake(&s.peers[id])
	if next <= round {
		next = round + 1
	}
	s.sched[id] = next
	if next < s.cfg.Rounds {
		s.cal.push(int32(id), next)
	}
}

// observerSlot maps observer index to its ledger slot.
func (s *Simulation) observerSlot(i int) overlay.PeerID {
	return overlay.PeerID(s.cfg.NumPeers + i)
}

// initPeer (re)initialises a population slot at the given join round
// with the given profile (pass -1 to sample one): fresh lifetime and
// availability session.
func (s *Simulation) initPeer(id overlay.PeerID, round int64, profile int) {
	p := &s.peers[id]
	prof := profile
	if prof < 0 {
		prof = s.cfg.Profiles.SampleIndex(s.r)
	}
	p.profile = int32(prof)
	p.avail = s.cfg.Profiles.Profile(prof).Availability
	if s.xfer != nil {
		// Bandwidth class is an identity property like the profile; with
		// a single class SampleIndex consumes no randomness, so instant
		// and restore-only configs keep the historical draw order.
		s.xfer.sched.AssignClass(id, s.xfer.sched.Params().SampleIndex(s.r))
	}
	p.join = round
	p.cat = metrics.Newcomer
	p.catChange = addClamped(round, metrics.CategoryBound(metrics.Newcomer))
	life := s.cfg.Profiles.SampleLifetime(s.r, prof)
	p.death = addClamped(round, life)
	p.online = s.r.Bool(p.avail)
	s.led.SetOnline(id, p.online)
	s.resetHistory(id) // fresh identity: observations start over
	s.invalidateSlot(id)
	s.recordSession(round, id, p.online)
	p.toggle = addClamped(round, churn.SessionLengthAt(s.cfg.Avail, s.r, p.avail, p.online, round))
	s.emitChurn(round, id, churn.EvJoin, prof)
	if p.online {
		s.emitChurn(round, id, churn.EvOnline, prof)
	} else {
		s.emitChurn(round, id, churn.EvOffline, prof)
	}
}

// emitChurn dispatches a churn event to every subscribed probe.
func (s *Simulation) emitChurn(round int64, id overlay.PeerID, kind churn.EventKind, profile int) {
	for _, p := range s.dispatch[evChurn] {
		p.OnChurn(ChurnEvent{Round: round, Peer: int(id), Kind: kind, Profile: profile})
	}
}

// setOnline flips a population peer's session state, updating the
// ledger and the monitoring history and emitting the churn event.
func (s *Simulation) setOnline(round int64, id overlay.PeerID, p *peer, online bool) {
	p.online = online
	s.led.SetOnline(id, online)
	s.recordSession(round, id, online)
	s.maint.InvalidateScore(id) // the flip mutated the monitored history
	kind := churn.EvOffline
	if online {
		kind = churn.EvOnline
	}
	s.emitChurn(round, id, kind, int(p.profile))
	if s.xfer != nil {
		// Session flips interrupt the flows they carry: offline suspends
		// every transfer touching the peer, online resumes those whose
		// other endpoint is up. Consumes no randomness.
		if online {
			s.xferResume(round, id)
		} else {
			s.xferSuspend(round, id)
		}
	}
}

// invalidateSlot drops a population slot's cached score when its
// occupant is replaced: the cached value described the departed peer.
func (s *Simulation) invalidateSlot(id overlay.PeerID) {
	s.maint.InvalidateScore(id)
}

// recordSession feeds a session transition into the slot's availability
// history. Rounds advance monotonically under engine control, so a
// record failure is a bug. While the sharded engine's churn phases run,
// the mutation is logged instead and applied — per-slot order intact —
// at the post-walk barrier; nothing reads a population history between
// here and there, so the deferral is invisible.
func (s *Simulation) recordSession(round int64, id overlay.PeerID, online bool) {
	if s.shards != nil && s.shards.logging {
		s.logHistOp(histOp{round: round, slot: int32(id), kind: histOpRecord, online: online})
		return
	}
	if err := s.hist[id].RecordTransition(round, online); err != nil {
		panic(err)
	}
}

// resetHistory clears the slot's availability history when its
// occupant is replaced (observations belong to identities, not slots),
// deferring through the sharded engine's op log like recordSession.
func (s *Simulation) resetHistory(id overlay.PeerID) {
	if s.shards != nil && s.shards.logging {
		s.logHistOp(histOp{slot: int32(id), kind: histOpReset})
		return
	}
	s.hist[id].Reset()
}

// peerEvent builds the probe payload for a population peer.
func (s *Simulation) peerEvent(round int64, id overlay.PeerID) PeerEvent {
	p := &s.peers[id]
	return PeerEvent{Round: round, Peer: int(id), Category: p.cat, Profile: int(p.profile)}
}

func addClamped(round, delta int64) int64 {
	if delta >= never || round+delta >= never || delta < 0 {
		return never
	}
	return round + delta
}

// simEnv adapts the simulation to maintenance.Env without an extra
// allocation per call.
type simEnv Simulation

// steadyHistory is the monitoring view of an observer peer: always
// online for as long as anyone has looked.
type steadyHistory struct{}

func (steadyHistory) Uptime(now int64, n int64) float64     { return 1 }
func (steadyHistory) ObservedSince() (round int64, ok bool) { return 0, true }

// View implements maintenance.Env: observable knowledge (age, monitored
// availability history) split from the oracle ground truth only the
// oracle baselines read. It writes nothing, so the sequential Step and
// concurrent PlanSteps share it; what it reads is frozen between the
// churn walk and the end of the maintenance phase.
func (e *simEnv) View(id overlay.PeerID) selection.View {
	s := (*Simulation)(e)
	if int(id) >= s.cfg.NumPeers {
		// Observer: fixed age, immortal, always online.
		spec := s.obsSpecs[int(id)-s.cfg.NumPeers]
		return selection.View{
			Observed: selection.Observed{Age: spec.Age, History: steadyHistory{}},
			Oracle:   selection.Oracle{Availability: 1, Remaining: never},
		}
	}
	p := &s.peers[id]
	remaining := int64(never)
	if p.death != never {
		remaining = p.death - s.round
	}
	return selection.View{
		Observed: selection.Observed{Age: s.round - p.join, History: &s.hist[id]},
		Oracle:   selection.Oracle{Availability: p.avail, Remaining: remaining},
	}
}

// Age implements maintenance.Env: View(id).Observed.Age and nothing else.
func (e *simEnv) Age(id overlay.PeerID) int64 {
	s := (*Simulation)(e)
	if int(id) >= s.cfg.NumPeers {
		return s.obsSpecs[int(id)-s.cfg.NumPeers].Age
	}
	return s.round - s.peers[id].join
}

// Round implements maintenance.Env.
func (e *simEnv) Round() int64 { return (*Simulation)(e).round }

// Population implements maintenance.Env: candidates are drawn from the
// regular population (observers are invisible as candidates, per the
// paper).
func (e *simEnv) Population() int { return (*Simulation)(e).cfg.NumPeers }

// Run executes the configured number of rounds and returns the result.
func (s *Simulation) Run() *Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// cancelCheckMask controls how often RunContext polls the context: every
// 64 rounds, cheap enough to be invisible and responsive enough that a
// cancelled multi-year run stops within milliseconds.
const cancelCheckMask = 63

// RunContext executes the run, polling ctx every few rounds; on
// cancellation it stops immediately and returns ctx's error with a nil
// result. A completed run is identical to Run's.
//
// RunContext is also the engine's panic recovery boundary: a panic in
// the engine or in an attached probe is recovered into a *PanicError
// that attributes the failing variant's Config, so a campaign runner
// can contain the failure instead of losing sibling variants (see
// internal/experiments).
func (s *Simulation) RunContext(ctx context.Context) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError(s.cfg, r)
		}
	}()
	return s.runContext(ctx)
}

// runContext is RunContext without the recovery boundary.
func (s *Simulation) runContext(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	for ; s.round < s.cfg.Rounds; s.round++ {
		if done != nil && s.round&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		s.stepRound()
		if s.cfg.Progress != nil && (s.round+1)%s.cfg.ProgressEvery == 0 {
			s.cfg.Progress(s.round + 1)
		}
	}
	included := s.countIncluded()
	res := &Result{
		Config:          s.cfg,
		Collector:       s.col,
		Observers:       s.obs,
		Trace:           s.trace,
		Deaths:          s.deaths,
		Cancels:         s.cancels,
		FinalPlacements: s.led.TotalPlacements(),
		FinalIncluded:   included,
	}
	if s.cfg.PhaseTimes {
		res.Phases = s.phases
	}
	return res, nil
}

// stepRound advances one round: shocks first, then churn events (from
// the calendar queue or the replay script) interleaved with active-set
// checks in ascending slot order, then maintenance actions in random
// order, then accounting.
//
// The walk replaces the historical full-population scan. Invariant
// (load-bearing for reproducibility): the rng draw order of the scan
// is preserved exactly. Due timed events drain in ascending slot id
// within a round; each visited slot runs the same per-slot body the
// scan ran (death, else category change, then toggle, then the
// archive-loss check, then actor collection); and a state change
// caused by slot j is observed by slot i's checks this round iff
// i > j — requestVisit's walkPos routing — exactly as the scan's
// single left-to-right pass saw it. Slots with no due timer, no
// pending loss check and no active maintenance work are never touched,
// which is what makes a quiescent round O(events) instead of
// O(NumPeers).
func (s *Simulation) stepRound() {
	if s.v3 != nil {
		s.stepRoundV3()
		return
	}
	round := s.round
	pt := s.phaseStart()
	s.actors = s.actors[:0]
	s.curQ, s.nextQ = s.nextQ, s.curQ
	s.walkPos = -1
	if s.shards != nil {
		// The churn phases log availability-history mutations instead of
		// applying them; the log drains at the post-walk barrier below.
		s.shards.logging = true
	}

	// Phase 0: correlated-failure shocks, so this round's churn and
	// maintenance already see the damage; then restore demand (a flash
	// crowd typically follows a shock by a few rounds).
	if len(s.cfg.Shocks) > 0 {
		s.stepShocks(round)
	}
	if s.xfer != nil && len(s.cfg.Restores) > 0 {
		s.stepRestores(round)
	}

	// Phase 1: churn events and actor collection. In replay mode the
	// trace is the sole source of membership and session transitions;
	// the walk below then only promotes categories and collects actors.
	if s.replay != nil {
		s.applyReplay(round)
	}
	s.due = s.cal.drain(round, s.sched, s.due[:0])
	for _, slot := range s.due {
		s.curQ.push(slot)
	}
	for !s.curQ.empty() {
		id := s.curQ.pop()
		s.walkPos = id
		s.visitSlot(round, overlay.PeerID(id))
	}
	s.walkPos = math.MaxInt32
	s.phaseLap(&s.phases.Walk, &pt)

	// Sharded barrier: apply the walk's deferred history mutations, one
	// worker per shard. Must complete before anything reads a history —
	// the earliest readers are the warm phase and the maintenance
	// phase's candidate views.
	if s.shards != nil {
		s.applyHistOps()
	}
	s.phaseLap(&s.phases.Merge, &pt)

	// Phase 1.5: due transfer completions, after the churn walk so a
	// same-round death or offline event wins over the completion (the
	// transfer aborted or suspended before it could land), before the
	// maintenance phase so delivered blocks count toward this round's
	// deficits. Consumes no randomness.
	if s.xfer != nil {
		s.stepTransfers(round)
	}
	s.phaseLap(&s.phases.TransferDrain, &pt)

	// Phase 1.6: adaptive redundancy evaluation, after the history
	// barrier (it reads monitored uptimes) and before the maintenance
	// shuffle (a grow decision arms its slot for next round's walk).
	// Draws only from the derived scratch stream, never from s.r.
	if s.redun != nil {
		s.stepRedundancy(round)
	}
	s.phaseLap(&s.phases.Evaluation, &pt)

	// Sharded warm phase: when the actor set will probe a large
	// fraction of the population, compute every slot's pure-policy
	// score in parallel before maintenance reads it through the
	// per-round memo. Consumes no randomness and computes exactly the
	// values the lazy miss path would, so it is invisible to
	// trajectories at any shard count.
	if s.shards != nil && s.warmWorthwhile() {
		s.warmCaches()
	}

	// Phase 2: maintenance in random order (the paper randomises peer
	// execution order each round).
	s.r.Shuffle(len(s.actors), func(i, j int) {
		s.actors[i], s.actors[j] = s.actors[j], s.actors[i]
	})
	for _, id := range s.actors {
		res := s.maint.Step(s.r, id)
		s.emitMaintOutcome(round, id, res)
	}

	// Observers act after the population (they contend with nobody).
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

	// Phase 3: accounting.
	end := RoundEndEvent{Round: round, Population: s.catPop}
	if s.redun != nil {
		end.MeanRedundancy = float64(s.redun.sum) / float64(s.cfg.NumPeers)
	}
	for _, pr := range s.dispatch[evRoundEnd] {
		pr.OnRoundEnd(end)
	}
	s.phaseLap(&s.phases.Maintenance, &pt)
}

// visitSlot runs the per-slot round body for one walked slot: due
// timed events first (mirroring the scan engine's body statement for
// statement, so the rng stream is bit-identical), then the pending
// archive-loss check, then active-set maintenance bookkeeping. A slot
// woken spuriously (its timer moved later after scheduling) finds
// nothing due, consumes no randomness, and is simply rescheduled.
func (s *Simulation) visitSlot(round int64, id overlay.PeerID) {
	p := &s.peers[id]
	if s.sched[id] == round {
		if s.replay != nil {
			if round >= p.catChange {
				s.promote(p)
			}
		} else {
			if round >= p.death {
				s.replacePeer(id, p, round)
			} else if round >= p.catChange {
				s.promote(p)
			}
			if round >= p.toggle {
				// The session draw must stay ahead of the churn emit so
				// the rng stream matches the historical inline flip.
				next := addClamped(round, churn.SessionLengthAt(s.cfg.Avail, s.r, p.avail, !p.online, round))
				s.setOnline(round, id, p, !p.online)
				p.toggle = next
			}
		}
		s.rescheduleAfterVisit(id, round)
	}

	// Permanent-loss detection is objective (the data is gone) and
	// does not require the owner to be online. The outage that
	// preceded it has been counted when the owner observed it. The
	// flag is only a candidate marker set at the alive<k crossing;
	// LostArchive is the verdict.
	if s.maint.TakeLossCheck(id) && s.maint.LostArchive(id) {
		if s.xfer != nil {
			// The in-flight blocks (and any restore) belong to the
			// abandoned archive; transfers the slot merely hosts live on.
			s.xferAbortOwner(round, id)
		}
		s.maint.ResetArchive(id)
		// The re-encoded archive is a fresh object: its redundancy target
		// restarts at the policy's initial value.
		s.redunReset(id)
		ev := s.peerEvent(round, id)
		for _, pr := range s.dispatch[evHardLoss] {
			pr.OnHardLoss(ev)
		}
	}

	if s.maint.Armed(id) {
		if !s.maint.WantsStep(id) {
			s.maint.Disarm(id)
		} else {
			if p.online {
				s.actors = append(s.actors, id)
			}
			// Armed slots are re-visited every round until their work
			// drains, like the scan engine's per-round WantsStep poll —
			// but only for the active set.
			s.nextQ.push(int32(id))
		}
	}
}

// promote moves a peer up one age category.
func (s *Simulation) promote(p *peer) {
	s.catPop[p.cat]--
	p.cat++
	s.catPop[p.cat]++
	p.catChange = addClamped(p.join, metrics.CategoryBound(p.cat))
}

// replacePeer handles a departure: blocks vanish, the slot is reused by
// a fresh age-0 peer (the paper replaces departures immediately). The
// replacement inherits the departed peer's profile so the population
// proportions stay exactly stationary, unless the config asks for
// resampling.
func (s *Simulation) replacePeer(id overlay.PeerID, p *peer, round int64) {
	dead := s.peerEvent(round, id)
	for _, pr := range s.dispatch[evDeath] {
		pr.OnDeath(dead)
	}
	s.emitChurn(round, id, churn.EvLeave, int(p.profile))
	s.deaths++
	s.catPop[p.cat]--
	s.catPop[metrics.Newcomer]++
	s.led.RemovePeer(id)
	s.tab.Bump(id)
	if s.xfer != nil {
		// Death kills every transfer the peer touched, before the slot's
		// maintenance state resets and a fresh identity takes it over.
		s.xferAbortAll(round, id)
	}
	s.maint.Reset(id)
	s.redunReset(id)
	profile := int(p.profile)
	if s.cfg.ResampleProfileOnReplace {
		profile = -1
	}
	s.initPeer(id, round, profile)
}

// StepRound advances the simulation by a single round, up to the
// configured horizon (benchmarks and tests; Run/RunContext drive full
// runs). It reports whether a round was executed.
func (s *Simulation) StepRound() bool {
	if s.round >= s.cfg.Rounds {
		return false
	}
	s.stepRound()
	s.round++
	return true
}

// Round returns the current round (for tests).
func (s *Simulation) Round() int64 { return s.round }

// Ledger exposes the overlay ledger (for tests and diagnostics).
func (s *Simulation) Ledger() *overlay.Ledger { return s.led }

// Maintainer exposes the protocol state (for tests and diagnostics).
func (s *Simulation) Maintainer() *maintenance.Maintainer { return s.maint }

// CategoryPopulation returns the current population of a category.
func (s *Simulation) CategoryPopulation(c metrics.Category) int64 { return s.catPop[c] }
