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
// # The determinism invariant
//
// A trajectory is a pure function of the config: bit-identical at every
// Config.Shards value, on every machine, under any goroutine schedule.
// Three rules make it so (walk.go has the round; ARCHITECTURE.md's
// "Determinism invariant" section has the argument):
//
//   - randomness is per slot: slot i draws every churn and maintenance
//     decision from its own stream, rng.Derive(Seed, slotStreamBase+i),
//     so its draw sequence depends only on its own event history;
//   - the walk is slot-local and its shared effects merge canonically:
//     a visit mutates only state its slot owns and logs everything else
//     (ledger membership and session flips, transfer aborts, redundancy
//     resets, probe events), and the merge applies the logs in ascending
//     slot order at the round barrier — so a threshold crossing caused
//     mid-walk is acted on next round, never the same one;
//   - maintenance is planned against the frozen post-merge state and
//     applied in ascending slot order, re-checking only host quota (see
//     maintenance/plan.go).
//
// The sequential phases around the walk — shocks, restore demand,
// replay, the initial population in New, observers — draw from the
// run's canonical stream and apply their effects at once. Spurious
// wakes, stale loss flags and armed-but-idle visits consume no
// randomness and emit no events. At one shard the walk and the plan run
// on the calling goroutine; the code path is the same.
//
// A floating-point product that feeds a sum in a trajectory or output
// package is written float64(x*y), because the Go spec lets a compiler
// fuse x*y+z into one rounding, arm64's does, and only an explicit
// conversion forbids it (CI checks arm64's assembly for fused
// operations). Runs have been checked on amd64 only; math.Exp and
// math.Log are per-architecture code, so other GOARCH values are not yet
// shown to match it.
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
// A slot's selection.View is built when asked for, never cached: it is
// two loads and a subtraction, and the candidate loop reads ages (from
// simEnv.Joins) far more often than views. ARCHITECTURE.md's "Hot path &
// caching" section has the full inventory.
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
	death     int64 // round the occupant departs (never for immortals)
	toggle    int64 // next session flip
	catChange int64 // next category promotion
}

// Result aggregates a finished run. Its JSON form, which a supervised
// campaign's workers send and its journal keeps, leaves out Config and
// Trace; the metrics types encode bit-exactly.
type Result struct {
	Config    Config                   `json:"-"`
	Collector *metrics.Collector       `json:"collector"`
	Observers *metrics.ObserverTracker `json:"observers,omitempty"`
	Trace     *churn.Trace             `json:"-"`
	// Deaths is the number of departures (and replacements).
	Deaths int64 `json:"deaths"`
	// Cancels counts repairs aborted after visibility recovered.
	Cancels int64 `json:"cancels"`
	// FinalPlacements is the block count in the system at the end.
	FinalPlacements int `json:"final_placements"`
	// FinalIncluded is how many peers had a complete archive at the end.
	FinalIncluded int `json:"final_included"`
	// Phases is the per-phase wall-time breakdown, non-nil only when
	// Config.PhaseTimes asked for it.
	Phases *PhaseTimes `json:"phases,omitempty"`
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
	replay   *replayScript       // non-nil: churn comes from Config.Replay
	xfer     *transfer.Scheduler // non-nil: bandwidth scheduling or restore demand enabled
	redun    *redunState         // non-nil: adaptive redundancy policy enabled

	// joins is the round each slot's current occupant joined, kept
	// apart from peer: an age is what the candidate loop asks of every
	// peer it draws, and 8 bytes a slot stay in cache where a 56-byte
	// peer record does not. Slot-local like peer: only the slot's own
	// visit writes it.
	joins []int64

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
	// slots. Held by value in one array: views point into it. Nil when
	// nothing reads it: the policy declares it never does
	// (selection.ReadsHistory) and redundancy is not adaptive.
	hist []monitor.IntervalHistory

	// Event-driven core: each population slot has one authoritative
	// wake time (sched, the earliest of its death/category/toggle
	// timers) tracked in the calendar bucket queue, and each round's
	// walk visits — in ascending slot order — the union of the slots
	// with due timers, the maintenance active set, and the slots
	// flagged for an archive-loss check. visitQ collects visit requests
	// until the round's walk set is frozen from it; a request made after
	// the freeze is for the next round's walk.
	cal    *calendar
	sched  []int64 // per slot: next wake round (never = no timer)
	visitQ *visitQueue
	due    []int32 // scratch: calendar drain output
	visits []int32 // scratch: the round's frozen walk set, ascending

	// streams holds one derived rng stream per population slot, by
	// value in one contiguous array; workers is one accumulator per
	// shard (see walk.go).
	streams []rng.Rand
	workers []worker
	flips   []overlay.Flips // per shard: the walk's staged session flips

	// wake is the Maintainer's wake hook, s.requestVisit bound once:
	// the walk detaches it and re-installs it every round, and a method
	// value built there would allocate each time.
	wake func(overlay.PeerID)

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
		col:      metrics.NewCollector(churn.Day, cfg.Warmup),
		peers:    make([]peer, cfg.NumPeers),
		joins:    make([]int64, cfg.NumPeers),
		obsSpecs: cfg.Observers,
		cal:      newCalendar(),
		sched:    make([]int64, cfg.NumPeers),
		visitQ:   newVisitQueue(cfg.NumPeers),
		streams:  make([]rng.Rand, cfg.NumPeers),
		workers:  make([]worker, max(cfg.Shards, 1)),
		flips:    make([]overlay.Flips, max(cfg.Shards, 1)),
	}
	s.wake = s.requestVisit
	// Preallocate the adjacency at its steady-state high-water mark so
	// the placement hot path never grows a slice: n blocks per owner,
	// quota per host plus one unmetered block per observer.
	s.led.Reserve(cfg.TotalBlocks, int(cfg.Quota)+len(cfg.Observers))
	for i := range s.sched {
		s.sched[i] = never
	}
	for i := range s.streams {
		s.streams[i].Reseed(rng.Derive(cfg.Seed, slotStreamBase+uint64(i)))
	}
	for i := range s.workers {
		s.workers[i].ws = maintenance.NewWorkspace(slots)
		s.workers[i].flips = &s.flips[i]
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
		RepairDelay:          cfg.RepairDelay,
	}, s.led, s.tab, cfg.policy, (*simEnv)(s))
	s.maint.SetWake(s.wake)
	if cfg.redundancy != nil {
		// The fixed shape allocates nothing and draws nothing: fixed-n
		// runs never see the redundancy stream
		// (TestFixedModeGoldenDigests pins this).
		s.redun = newRedunState(cfg)
		s.maint.SetTargets(s.redun.target, s.redun.thr)
	}
	// Histories have two readers, a policy that does not declare
	// IgnoresHistory (the monitored-availability ranking) and adaptive
	// redundancy's partner probe; with neither there is nothing to keep.
	// Recording consumes no randomness, so the choice moves no trajectory.
	if selection.ReadsHistory(cfg.policy) || s.redun != nil {
		s.hist = make([]monitor.IntervalHistory, cfg.NumPeers)
		for i := range s.hist {
			s.hist[i] = *monitor.NewIntervalHistory(cfg.AcceptHorizon)
		}
	}
	s.phases = &PhaseTimes{}

	if cfg.bandwidth != nil || len(cfg.Restores) > 0 {
		// The transfer machinery exists only when asked for. Restore-only
		// configs (no BandwidthSpec) schedule downloads against the
		// instant mix and keep instant placement. Scheduler slots cover
		// the population only: observers are unmetered instrumentation.
		s.xfer = transfer.NewScheduler(cfg.bandwidth, cfg.NumPeers)
		if cfg.bandwidth != nil && !cfg.bandwidth.Instant() {
			s.maint.SetTransfers(simXfer{s.xfer, s})
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
			s.initPeer(nil, overlay.PeerID(id), 0, -1, s.r)
			s.catPop[metrics.Newcomer]++
			s.scheduleEarlier(overlay.PeerID(id), s.nextWake(&s.peers[id]))
		}
	}
	// Every slot starts armed (initial upload pending), so the first
	// round's walk visits the whole population once.
	for id := 0; id < cfg.NumPeers; id++ {
		s.requestVisit(overlay.PeerID(id))
	}
	for i := range s.obsSpecs {
		s.maint.SetUnmetered(s.observerSlot(i), true)
	}
	return s, nil
}

// requestVisit asks the walk to visit a population slot: this round if
// its walk set is not yet frozen, next round otherwise. Observer slots
// are ignored — they are polled in their own phase. This is also the
// Maintainer's wake hook, so arming a slot (a ledger threshold
// crossing, a death reset) schedules its visit automatically.
func (s *Simulation) requestVisit(id overlay.PeerID) {
	if int(id) < s.cfg.NumPeers {
		s.visitQ.push(int32(id))
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

// observerSlot maps observer index to its ledger slot.
func (s *Simulation) observerSlot(i int) overlay.PeerID {
	return overlay.PeerID(s.cfg.NumPeers + i)
}

// emitChurn dispatches a churn event to every subscribed probe.
func (s *Simulation) emitChurn(round int64, id overlay.PeerID, kind churn.EventKind, profile int) {
	for _, p := range s.dispatch[evChurn] {
		p.OnChurn(ChurnEvent{Round: round, Peer: int(id), Kind: kind, Profile: profile})
	}
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

func (steadyHistory) Uptime(now int64, n int64) float64 { return 1 }

// View implements maintenance.Env: observable knowledge (age, monitored
// availability history) split from the oracle ground truth only the
// oracle baselines read. It writes nothing, so concurrent PlanSteps
// share it; what it reads is frozen between the churn walk and the end
// of the maintenance phase. When no histories are kept the view carries
// none, observers' included, so a policy that declared it reads none
// and does sees Observed.Uptime report !ok rather than a history.
func (e *simEnv) View(id overlay.PeerID) selection.View {
	s := (*Simulation)(e)
	var hist selection.AvailabilityHistory
	if int(id) >= s.cfg.NumPeers {
		// Observer: fixed age, immortal, always online.
		if s.hist != nil {
			hist = steadyHistory{}
		}
		spec := s.obsSpecs[int(id)-s.cfg.NumPeers]
		return selection.View{
			Observed: selection.Observed{Age: spec.Age, History: hist},
			Oracle:   selection.Oracle{Availability: 1, Remaining: never},
		}
	}
	if s.hist != nil {
		hist = &s.hist[id]
	}
	p := &s.peers[id]
	remaining := int64(never)
	if p.death != never {
		remaining = p.death - s.round
	}
	return selection.View{
		Observed: selection.Observed{Age: s.round - s.joins[id], History: hist},
		Oracle:   selection.Oracle{Availability: p.avail, Remaining: remaining},
	}
}

// Joins implements maintenance.Env: the candidates' join rounds, which
// the engine keeps for the population's slots (observers are never
// candidates).
func (e *simEnv) Joins() []int64 { return (*Simulation)(e).joins }

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
	}
	included := 0
	for id := range s.peers {
		if s.maint.Included(overlay.PeerID(id)) {
			included++
		}
	}
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
