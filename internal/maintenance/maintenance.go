// Package maintenance implements the paper's simulated protocol
// (section 3.2): per-peer archive maintenance as a small state machine.
//
// Each peer owns one archive of n = k+m erasure-coded blocks, one block
// per partner. Every round the peer monitors its partners; when the
// number of visible blocks falls below the repair threshold k', it
// starts a repair:
//
//  1. Triggered: gather candidate partners (mutual acceptance through
//     the selection strategy, bounded sampling per round) and wait until
//     at least k blocks are visible so the archive can be decoded. If
//     visibility recovers to the threshold first, the repair is
//     cancelled.
//  2. Decode point: the peer downloads k blocks, re-encodes, and writes
//     off the partners it considers gone: dead and currently offline
//     ones alike (the paper's departure time-threshold, collapsed to
//     the decode instant).
//  3. Uploading: replacement blocks are pushed incrementally, each round
//     to the best-ranked currently-online pool members, until the
//     archive is back to n placed blocks. The paper is explicit that
//     this phase need not fit in one round: "the upload of generated
//     blocks can be done later as new partners become available".
//
// The initial upload is the Uploading phase with d = n ("seen as a
// repair where d = 256"); a peer is not included in the network until
// it completes. An archive is lost when fewer than k blocks survive on
// living peers.
//
// The Maintainer operates on the overlay.Ledger and is driven by the
// simulation engine, which decides which peers act each round and in
// what order. A round of maintenance is decided against the frozen
// round state (PlanStep) and then carried out (ApplyPlan); plan.go has
// the state machine and the contract that lets owners plan concurrently.
// Nothing else here is safe for concurrent use.
//
// Candidate gathering (refreshPool) is where a run spends most of its
// time, so its sampling loop is flat: it draws from Env.Population
// itself with the rng's state held in registers, screens a candidate in
// one test over the ledger's and the step's arrays (online, quota left,
// not the owner, not a partner, not pooled), negotiates on two entries
// of the policy's age table (selection.AcceptTable, over the ages
// Env.Joins gives) and builds a View only to score a candidate it has
// accepted. The loop it replaced lives on in oracle_test.go as the
// reference it must match draw for draw.
//
// Memory: per-slot state is a few dozen bytes (peerState). The
// candidate pool — up to n accepted partners waiting for a block — is
// held in a buffer the slot owns only while the pool is non-empty,
// drawn from and returned to a bounded cache (pool.go), and pool
// membership is deduplicated by a per-step mark array shared with the
// partner test, not by a per-slot map; oracle_test.go keeps that map as
// the reference the marks are tested against.
//
// Paper mapping (in the style of internal/selection):
//
//	§2.2.2 "maintenance"        PlanStep, the monitor→repair transition
//	§2.2.3 repair threshold k'  Params.RepairThreshold (trigger: visible < k')
//	§2.2.4 bandwidth bound      Params.UploadBudgetPerRound (d≈128 blocks ≈ 1 round on DSL)
//	§3.2   simulated protocol   the state machine (stateIdle → stateTriggered → stateUploading)
//	§3.2   "d = 256" initial    the Uploading phase entered with d = n at join
//	§5     future work: delay   Params.RepairDelay (held repairs cancel on recovery)
//
// An archive is "lost" (the figures' metric) when visible blocks drop
// below k — a decode outage; it is *permanently* lost when fewer than
// k blocks survive on living peers.
package maintenance

import (
	"fmt"
	"math"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// Params configures the maintenance protocol.
type Params struct {
	// TotalBlocks is n, the blocks per archive (paper: 256).
	TotalBlocks int
	// DataBlocks is k, the blocks needed to decode (paper: 128).
	DataBlocks int
	// RepairThreshold is k': repair when visible blocks drop below it
	// (paper: varied 132-180, focus 148).
	RepairThreshold int
	// PoolSamplePerRound bounds candidate probing per repairing peer
	// per round.
	PoolSamplePerRound int
	// UploadBudgetPerRound caps how many blocks a peer can push per
	// round, modelling the asymmetric-link bound of the paper's section
	// 2.2.4 (a worst-case repair of ~128 blocks fills roughly one
	// round). 0 means unlimited.
	UploadBudgetPerRound int
	// RepairDelay makes a triggered repair wait this many owner-online
	// rounds before its decode point, giving temporarily offline
	// partners time to return (the paper's future-work item: "delaying
	// the repair to allow peers to come back in the system"): a partner
	// back in time lifts the visible count to the threshold and cancels
	// the repair. 0 = repair immediately.
	RepairDelay int
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.DataBlocks < 1 {
		return fmt.Errorf("maintenance: k = %d must be >= 1", p.DataBlocks)
	}
	if p.TotalBlocks <= p.DataBlocks {
		return fmt.Errorf("maintenance: n = %d must exceed k = %d", p.TotalBlocks, p.DataBlocks)
	}
	if p.RepairThreshold < p.DataBlocks || p.RepairThreshold > p.TotalBlocks {
		return fmt.Errorf("maintenance: threshold %d outside [k=%d, n=%d]",
			p.RepairThreshold, p.DataBlocks, p.TotalBlocks)
	}
	if p.PoolSamplePerRound < 1 {
		return fmt.Errorf("maintenance: pool sample %d must be >= 1", p.PoolSamplePerRound)
	}
	if p.UploadBudgetPerRound < 0 {
		return fmt.Errorf("maintenance: upload budget %d must be >= 0", p.UploadBudgetPerRound)
	}
	if p.RepairDelay < 0 {
		return fmt.Errorf("maintenance: repair delay %d must be >= 0", p.RepairDelay)
	}
	return nil
}

// Outcome reports what a Step accomplished.
type Outcome uint8

// Step outcomes.
const (
	// OutcomeNone: nothing notable (pool building or uploading
	// continues).
	OutcomeNone Outcome = iota
	// OutcomeRepaired: a maintenance repair episode completed (the
	// archive is back to n placed blocks).
	OutcomeRepaired
	// OutcomeInitialDone: the initial (or post-loss) full upload
	// completed; the peer is now included.
	OutcomeInitialDone
	// OutcomeStalled: repair needed but fewer than k blocks visible, so
	// the archive cannot be decoded this round.
	OutcomeStalled
	// OutcomeCanceled: visibility recovered above the threshold before
	// the decode point; the repair was abandoned.
	OutcomeCanceled
)

var outcomeNames = [...]string{"none", "repaired", "initial-done", "stalled", "canceled"}

// String names the outcome as probes and logs print it ("repaired",
// "stalled", ...); an unknown value prints as Outcome(n).
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// StepResult carries a step's outcome and its traffic accounting.
// Uploaded and Dropped are reported on the step that finishes an
// episode and cover the whole episode.
type StepResult struct {
	Outcome  Outcome
	Uploaded int // blocks uploaded during the episode
	Dropped  int // placements written off at the decode point
	// OutageStarted marks the first stalled round of a decode outage:
	// the archive just became unrecoverable from currently online peers
	// (visible < k). This is the event the paper counts as a lost
	// archive ("even if the disconnections were temporary"); whether it
	// becomes a PERMANENT loss (alive < k) is tracked separately by
	// LostArchive.
	OutageStarted bool
}

// Env supplies the Maintainer with information owned by the simulation
// engine: what the selection policy may know about a peer, who can be
// drawn as a candidate, and the current round. View and Joins are called
// from concurrent PlanSteps and must not write shared state.
type Env interface {
	// View describes a peer for the selection policy, split into
	// observable and oracle knowledge.
	View(id overlay.PeerID) selection.View
	// Joins returns the round each candidate's current occupant joined,
	// indexed by slot over [0, Population()): candidate c's age is
	// Round() − Joins()[c], which is View(c).Observed.Age. It is all
	// that acceptance (selection.AcceptTable) reads of a candidate. The
	// Maintainer only reads it.
	Joins() []int64
	// Population returns how many slots can be drawn as candidates:
	// refreshPool samples uniformly from [0, Population()).
	Population() int
	// Round returns the current round, the "now" of windowed
	// availability queries.
	Round() int64
}

// Transfers is the bandwidth-scheduling hook: when installed via
// SetTransfers, an upload step enqueues block transfers instead of
// placing instantly, and the engine lands them later through
// DeliverUpload. The implementation (the simulation engine's transfer
// scheduler) owns all timing; the Maintainer only respects the
// concurrency cap and the quota reservations of in-flight uploads.
type Transfers interface {
	// BeginUpload schedules one block from owner to the host behind
	// ref. The caller has already validated quota (net of Reserved)
	// and the owner's UploadSlots headroom.
	BeginUpload(owner overlay.PeerID, host overlay.Ref)
	// Inflight returns the owner's outstanding outgoing upload count.
	Inflight(owner overlay.PeerID) int
	// UploadSlots returns how many more uploads the owner may start
	// now under its bandwidth class's concurrency cap.
	UploadSlots(owner overlay.PeerID) int
	// Reserved returns the host quota units reserved by in-flight
	// uploads toward the peer.
	Reserved(host overlay.PeerID) int
	// PendingHosts appends the hosts of the owner's in-flight uploads
	// to buf (partners that must not be double-booked).
	PendingHosts(owner overlay.PeerID, buf []overlay.PeerID) []overlay.PeerID
}

// state is the per-archive protocol state.
type state uint8

const (
	stateIdle      state = iota // healthy included archive
	stateTriggered              // below threshold, not yet decoded
	stateUploading              // decoded (or initial), pushing blocks
)

// poolEntry is an accepted candidate waiting to receive a block.
// placeable is a per-step scratch flag: planUpload computes each
// entry's eligibility once per step, so the per-placement max-score
// scans are pure slice walks.
type poolEntry struct {
	ref       overlay.Ref
	score     float64
	placeable bool
}

// peerState is the per-slot maintenance state.
type peerState struct {
	included  bool
	unmetered bool
	outage    bool // inside a decode outage (visible < k observed)
	armed     bool // member of the active (dirty) set
	lossCheck bool // pending archive-loss check (alive crossed below k)
	st        state
	waited    int   // owner-online rounds spent in Triggered (RepairDelay)
	uploaded  int   // blocks placed in the current episode
	dropped   int   // placements written off at the decode point
	epStart   int64 // round the current repair episode triggered
	// pool holds the accepted candidates of the episode in flight that
	// have not received a block yet. Its buffer comes from the
	// Maintainer's poolCache when refreshPool needs room and goes back
	// as soon as a step, or the episode, leaves the pool empty: a slot
	// holds a buffer only while it holds candidates.
	pool []poolEntry
}

// Maintainer runs the maintenance protocol for every slot.
//
// The Maintainer keeps an incrementally maintained "active set": the
// slots that may have maintenance work (initial upload pending, a
// repair episode in flight, or visible blocks below the repair
// threshold). It registers itself as the ledger's Watcher, so a peer
// whose visible count crosses below the threshold — or whose archive
// enters loss territory — is armed (or flagged for a loss check) at
// the moment the crossing happens, with no per-round polling. The
// engine drives the set through Armed/Disarm/TakeLossCheck and learns
// about new members through the SetWake hook; WantsStep remains as the
// authoritative per-peer predicate the engine re-checks on every visit
// (and tests poll directly).
type Maintainer struct {
	params Params
	led    *overlay.Ledger
	tab    *overlay.Table
	pol    selection.Policy
	env    Env
	peers  []peerState
	wake   func(overlay.PeerID)
	xfer   Transfers // nil: the historical instant-placement path

	// target and thr are the per-archive block counts n(t) and repair
	// triggers of an adaptive redundancy policy (see SetTargets); both
	// nil under the paper's fixed shape.
	target, thr []int32

	// accept is the policy's acceptance over two ages
	// (selection.AcceptTable), resolved once: refreshPool negotiates on
	// two of its entries.
	accept []float64

	// Mark epochs: refreshPool stamps the acting owner's current
	// partners into a per-slot epoch array, turning the former O(owner
	// degree) Ledger.HasPlacement scan — the dominant cost of a churn
	// round — into one array compare per check. A fresh epoch per
	// refreshPool call invalidates all previous marks at once; place
	// refreshes the mark when a block lands so the same step's later
	// eligibility checks see the new partner. The same array
	// deduplicates pool membership (see markSet).
	//
	// The marks and the host scratch live in a Workspace: own for Step,
	// one per planning worker otherwise (see plan.go).
	own Workspace

	// pools recycles candidate-pool buffers: a slot holds one only
	// while its pool holds candidates.
	pools poolCache
}

// New returns a Maintainer over the ledger's slots. It panics on
// invalid params (programmer error; validate user input with
// Params.Validate first).
//
// New registers the Maintainer as the ledger's Watcher (thresholds:
// RepairThreshold for visibility, DataBlocks for archive loss) and
// arms every slot: all peers start with an initial upload pending.
func New(params Params, led *overlay.Ledger, tab *overlay.Table, pol selection.Policy, env Env) *Maintainer {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if led.NumPeers() != tab.Len() {
		panic("maintenance: ledger and table sizes differ")
	}
	m := &Maintainer{
		params: params,
		led:    led,
		tab:    tab,
		pol:    pol,
		env:    env,
		peers:  make([]peerState, led.NumPeers()),
		own:    Workspace{marks: newMarkSet(led.NumPeers())},
		pools:  poolCache{limit: max(minFreePools, led.NumPeers()/256)},
		accept: selection.AcceptTable(pol),
	}
	for i := range m.peers {
		m.peers[i].armed = true
	}
	led.Watch(m, int32(params.RepairThreshold), int32(params.DataBlocks))
	return m
}

// SetWake installs the hook called whenever a slot is armed or flagged
// for a loss check. The engine uses it to schedule a visit to the slot;
// a nil hook (the default) leaves the flags purely pull-based, which is
// what unit tests use.
func (m *Maintainer) SetWake(f func(overlay.PeerID)) { m.wake = f }

// SetTransfers installs the bandwidth scheduler: metered peers stop
// placing blocks instantly and enqueue transfers instead, completed
// later by the engine through DeliverUpload. Unmetered (observer)
// slots keep the instant path — they are instrumentation, not modelled
// links. A nil scheduler (the default) is the historical instant mode,
// byte-identical to the pre-transfer engine.
func (m *Maintainer) SetTransfers(t Transfers) { m.xfer = t }

// SetTargets installs per-archive redundancy: when the engine runs an
// adaptive redundancy policy, slot id's desired block count n(t) is
// target[id] and its repair trigger thr[id], in [DataBlocks,
// target[id]]. The engine keeps writing both slices; the Maintainer
// reads them and never writes. A slot past the slices (an observer)
// keeps the global Params, and nil slices (the default) are the paper's
// fixed shape. They are read only on the owner-specific paths
// (deficits, triggers, completion checks): the ledger watcher and
// WantsStep keep the global — and always ≥ per-archive — thresholds, so
// a below-trigger adaptive archive is found by the same arm-and-poll
// machinery as a fixed one.
func (m *Maintainer) SetTargets(target, thr []int32) { m.target, m.thr = target, thr }

// targetBlocks returns the archive's desired block count n(t).
func (m *Maintainer) targetBlocks(id overlay.PeerID) int {
	if int(id) < len(m.target) {
		return int(m.target[id])
	}
	return m.params.TotalBlocks
}

// threshold returns the archive's repair trigger.
func (m *Maintainer) threshold(id overlay.PeerID) int {
	if int(id) < len(m.thr) {
		return int(m.thr[id])
	}
	return m.params.RepairThreshold
}

// GrowArchive starts an upload episode that raises an idle, included
// archive to its (just raised) target block count: the ordinary upload
// machinery — candidate pools, quota, the transfer scheduler when one
// is installed — places the extra parity blocks, and the episode
// completes through the usual OutcomeRepaired path. It reports whether
// an episode was started; archives mid-repair or awaiting their initial
// upload already converge to the new target on their own.
func (m *Maintainer) GrowArchive(id overlay.PeerID) bool {
	p := &m.peers[id]
	if !p.included || p.st != stateIdle {
		return false
	}
	p.st = stateUploading
	p.epStart = m.env.Round()
	m.Arm(id)
	return true
}

// ShrinkArchive retires surplus placements until the archive holds at
// most nt blocks (its just lowered target): offline hosts first, their
// blocks being the least useful, then from the placement list's end.
// Dropping frees host quota at once; a visibility crossing fires the
// ledger watcher exactly as a partner death would, so the armed set
// stays coherent.
func (m *Maintainer) ShrinkArchive(id overlay.PeerID, nt int) {
	m.dropOffline(id, nt)
	for m.led.Alive(id) > nt {
		if err := m.led.DropPlacementAt(id, m.led.Alive(id)-1); err != nil {
			panic(err)
		}
	}
}

// dropOffline drops the archive's placements on offline hosts, from
// the placement list's end, until at most keep blocks are left.
func (m *Maintainer) dropOffline(id overlay.PeerID, keep int) {
	for i := m.led.Alive(id) - 1; i >= 0 && m.led.Alive(id) > keep; i-- {
		host, err := m.led.HostAt(id, i)
		if err != nil {
			panic(err) // ledger indexes are engine-controlled
		}
		if !m.led.Online(host) {
			if err := m.led.DropPlacementAt(id, i); err != nil {
				panic(err)
			}
		}
	}
}

// VisibleBelow implements overlay.Watcher: a peer whose visible blocks
// crossed below the repair threshold has maintenance work.
func (m *Maintainer) VisibleBelow(owner overlay.PeerID) { m.Arm(owner) }

// AliveBelow implements overlay.Watcher: a peer whose alive blocks
// crossed below k needs an archive-loss check. Only included peers can
// lose an archive; crossings on slots mid-upload are ignored.
func (m *Maintainer) AliveBelow(owner overlay.PeerID) {
	p := &m.peers[owner]
	if !p.included || p.lossCheck {
		return
	}
	p.lossCheck = true
	if m.wake != nil {
		m.wake(owner)
	}
}

// Arm adds a slot to the active set and wakes the engine. Arming an
// already-armed slot is a no-op.
func (m *Maintainer) Arm(id overlay.PeerID) {
	p := &m.peers[id]
	if p.armed {
		return
	}
	p.armed = true
	if m.wake != nil {
		m.wake(id)
	}
}

// Armed reports whether the slot is in the active set.
func (m *Maintainer) Armed(id overlay.PeerID) bool { return m.peers[id].armed }

// Disarm removes a slot from the active set. The engine calls it when a
// visit finds WantsStep false; the slot re-arms on the next threshold
// crossing (or Reset/ResetArchive).
func (m *Maintainer) Disarm(id overlay.PeerID) { m.peers[id].armed = false }

// TakeLossCheck consumes the slot's pending loss-check flag, reporting
// whether one was set. The flag is a candidate marker, not a verdict:
// the caller must still confirm with LostArchive.
func (m *Maintainer) TakeLossCheck(id overlay.PeerID) bool {
	p := &m.peers[id]
	was := p.lossCheck
	p.lossCheck = false
	return was
}

// Params returns the protocol parameters.
func (m *Maintainer) Params() Params { return m.params }

// Included reports whether the peer completed its initial upload.
func (m *Maintainer) Included(id overlay.PeerID) bool { return m.peers[id].included }

// Repairing reports whether the peer has a repair episode in flight.
func (m *Maintainer) Repairing(id overlay.PeerID) bool { return m.peers[id].st != stateIdle }

// EpisodeStart returns the round the peer's current (or, until the next
// episode begins, most recent) episode started: the trigger round for a
// repair, the first acting round for an initial upload. The engine
// reads it when an episode completes to report its elapsed time.
func (m *Maintainer) EpisodeStart(id overlay.PeerID) int64 { return m.peers[id].epStart }

// PoolSize returns the current candidate pool size (tests/diagnostics).
func (m *Maintainer) PoolSize(id overlay.PeerID) int { return len(m.peers[id].pool) }

// PoolCap returns the capacity of the buffer behind the slot's candidate
// pool: zero unless the pool holds candidates, which is the only time a
// slot has a buffer (tests/diagnostics).
func (m *Maintainer) PoolCap(id overlay.PeerID) int { return cap(m.peers[id].pool) }

// SetUnmetered marks a slot as quota-exempt (observer peers).
func (m *Maintainer) SetUnmetered(id overlay.PeerID, v bool) { m.peers[id].unmetered = v }

// Reset returns a slot to the fresh state (used when a peer dies and
// the slot is reused). The caller is responsible for the ledger-side
// cleanup (RemovePeer). The unmetered flag persists: it is a property
// of the slot. A pool buffer the departed occupant's episode held goes
// back to the cache.
func (m *Maintainer) Reset(id overlay.PeerID) {
	p := &m.peers[id]
	p.lossCheck = false // any pending check belonged to the old occupant
	m.abandonArchive(p)
	m.Arm(id) // the fresh occupant has an initial upload pending
}

// abandonArchive returns a slot to the state of a peer with nothing
// uploaded: not included, no outage, no episode in flight.
func (m *Maintainer) abandonArchive(p *peerState) {
	p.included = false
	p.outage = false
	m.finishEpisode(p)
}

// LostArchive reports whether an included peer's archive has become
// unrecoverable: fewer than k blocks on living hosts.
func (m *Maintainer) LostArchive(id overlay.PeerID) bool {
	return m.peers[id].included && m.led.Alive(id) < m.params.DataBlocks
}

// ResetArchive abandons a lost archive: surviving (useless) placements
// are released and the peer re-enters the initial-upload flow with a
// freshly encoded archive.
func (m *Maintainer) ResetArchive(id overlay.PeerID) {
	m.led.DropOwner(id)
	p := &m.peers[id]
	p.lossCheck = false
	m.abandonArchive(p)
	m.Arm(id) // the re-encoded archive needs a full upload
}

// WantsStep reports whether the peer has maintenance work this round
// (assuming its owner is online; the engine checks that). It is the
// authoritative per-peer predicate: the engine re-checks it on every
// visit to an armed slot (the active set is a superset of the peers
// that truly want work), and tests poll it directly.
func (m *Maintainer) WantsStep(id overlay.PeerID) bool {
	p := &m.peers[id]
	if !p.included || p.st != stateIdle {
		return true
	}
	return m.led.Visible(id) < m.params.RepairThreshold
}

// freeQuota returns the host quota available for a new placement or
// transfer reservation toward c: the ledger's free quota net of units
// already promised to in-flight uploads. Without a transfer scheduler
// it is exactly Ledger.FreeQuota.
func (m *Maintainer) freeQuota(c overlay.PeerID) int {
	free := m.led.FreeQuota(c)
	if m.xfer != nil {
		free -= m.xfer.Reserved(c)
	}
	return free
}

// DeliverUpload lands one in-flight block from owner on host: the
// engine calls it when a transfer completes (after the scheduler
// released its quota reservation, so the placement must succeed). It
// returns the episode's outcome when this delivery finished the
// episode, OutcomeNone mid-episode.
func (m *Maintainer) DeliverUpload(owner, host overlay.PeerID) StepResult {
	p := &m.peers[owner]
	if p.st != stateUploading {
		// Transfers exist only for uploading owners, and the engine
		// aborts them when the owner dies or resets; a delivery in any
		// other state is a stale transfer that escaped its abort hook.
		panic(fmt.Sprintf("maintenance: delivery for peer %d in state %d", owner, p.st))
	}
	if err := m.led.Place(owner, host); err != nil {
		panic(fmt.Sprintf("maintenance: delivery %d->%d failed: %v", owner, host, err))
	}
	p.uploaded++
	if m.led.Alive(owner) < m.targetBlocks(owner) {
		return StepResult{}
	}
	return m.completeEpisode(p)
}

// completeEpisode closes an episode whose last block has landed and
// reports it: a repair, or the upload that makes the peer included.
func (m *Maintainer) completeEpisode(p *peerState) StepResult {
	res := StepResult{Outcome: OutcomeRepaired, Uploaded: p.uploaded, Dropped: p.dropped}
	if !p.included {
		res.Outcome = OutcomeInitialDone
		p.included = true
	}
	m.finishEpisode(p)
	return res
}

// finishEpisode clears episode state and drops whatever the pool holds.
func (m *Maintainer) finishEpisode(p *peerState) {
	p.st = stateIdle
	p.waited = 0
	p.uploaded = 0
	p.dropped = 0
	p.pool = p.pool[:0]
	m.releaseEmptyPool(p)
}

// releaseEmptyPool hands the slot's pool buffer back to the cache when
// the pool holds no candidate. PlanStep ends with it: an upload
// step usually places on every candidate it accepted, so a buffer
// serves one step and is back in the cache — still warm — for the next
// owner's, and only a pool with candidates left over (offline since,
// over the upload budget, waiting out a stall or a transfer slot) keeps
// one across rounds.
func (m *Maintainer) releaseEmptyPool(p *peerState) {
	if p.pool != nil && len(p.pool) == 0 {
		m.pools.put(p.pool)
		p.pool = nil
	}
}

func (m *Maintainer) place(owner overlay.PeerID, p *peerState, host overlay.PeerID) {
	var err error
	if p.unmetered {
		err = m.led.PlaceUnmetered(owner, host)
	} else {
		err = m.led.Place(owner, host)
	}
	if err != nil {
		// The plan validated liveness and ApplyPlan re-checked quota just
		// now, on the one applying goroutine; failure is a bug.
		panic(fmt.Sprintf("maintenance: placement %d->%d failed: %v", owner, host, err))
	}
}

// refreshPool prunes dead/ineligible entries and samples new candidates
// up to the per-round budget. Offline candidates are NOT pruned: they
// agreed to the partnership and become placeable when they return. ws
// is the planner's scratch.
//
// It opens a fresh mark epoch for the acting owner: the owner's current
// partners are stamped once (O(degree)), and every subsequent "is this
// peer already a partner" check here and in takeBestPlaceable is one
// array compare — replacing the O(degree) HasPlacement scan per
// candidate that used to dominate churn-round profiles, with identical
// outcomes (and therefore identical rng draw order).
//
// Pool membership is deduplicated by marks of the same epoch, stamped on
// every entry that survives the prune and every candidate accepted
// after it. That is exact: the prune drops every entry whose generation
// is no longer current before sampling starts and a generation cannot
// change inside a step, so "already pooled under its current identity"
// is the same as "survived the prune or accepted since".
func (m *Maintainer) refreshPool(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace) {
	marks := &ws.marks
	marks.open()
	marks.setPartner(id)
	m.led.MarkHosts(id, marks.mark, marks.epoch) // setPartner on each host
	if m.xfer != nil && !p.unmetered {
		// Hosts of in-flight uploads are partners-to-be: they hold a
		// quota reservation and must not be booked a second time while
		// the first block is still on the wire.
		ws.hostBuf = m.xfer.PendingHosts(id, ws.hostBuf[:0])
		for _, h := range ws.hostBuf {
			marks.setPartner(h)
		}
	}

	// Prune entries that can never be used again.
	valid := p.pool[:0]
	for _, e := range p.pool {
		if !m.tab.Current(e.ref) || marks.isPartner(e.ref.ID) {
			continue
		}
		marks.setPooled(e.ref.ID)
		valid = append(valid, e)
	}
	p.pool = valid

	// The most this round can add is the sampling budget, up to the
	// pool's hard cap (as large as any conceivable deficit). Making room
	// for it here is the only place a pool buffer is acquired or grown.
	room := min(m.params.PoolSamplePerRound, m.params.TotalBlocks-len(p.pool))
	if room <= 0 {
		return
	}
	if cap(p.pool)-len(p.pool) < room {
		// At least doubled, so that a pool that accumulates over rounds
		// (metered uploads take a few candidates at a time) settles
		// within two growths.
		want := max(len(p.pool)+room, 2*cap(p.pool))
		p.pool = m.pools.grow(p.pool, min(want, m.params.TotalBlocks))
	}

	// The candidate loop is the hottest code of a campaign, and most of
	// what it draws is turned away by the draw-free screen (the owner
	// itself, marked a partner above; offline; out of quota; already
	// taken). Which draw passes is as good as random, so the screen
	// reads its three arrays without a branch and branches once on what
	// they say together, the owner's mode folded into its data (an
	// unmetered owner's quota limit is MaxInt32). The rng's state stays
	// in registers for the length of the loop. What passes is
	// negotiated on two entries of the age table; only what is accepted
	// is looked at as a View, to be scored.
	round := m.env.Round()
	ctx := selection.Context{Round: round}
	// Every array the loop indexes by candidate is cut to the population,
	// so one bounds test covers them all.
	n := m.env.Population()
	joins := m.env.Joins()[:n]
	online, metered, limit := m.led.Screen()
	online, metered = online[:n], metered[:n]
	if p.unmetered {
		limit = math.MaxInt32
	}
	reserving := m.xfer != nil && !p.unmetered
	marked := markSet{epoch: marks.epoch, mark: marks.mark[:n]}
	tab := m.accept
	L := int64(len(tab) / 2)
	ownerAge := min(max(m.env.View(id).Observed.Age, 0), L)
	draws, full := m.params.PoolSamplePerRound, m.params.TotalBlocks
	pool := p.pool
	st := r.State()
	thresh := -uint64(n) % uint64(n) // Intn's, for Uint64nThresh
	for len(pool) < full {
		// Draw until a candidate passes the screen or the budget is
		// spent. Nothing in here calls out, so what it keeps stays in
		// registers.
		c := overlay.NoPeer
		for draws > 0 {
			draws--
			var draw uint64
			draw, st = st.Uint64nThresh(uint64(n), thresh)
			// One block per partner per archive, and none on the owner.
			if d := overlay.PeerID(draw); bit(online[d])&bit(metered[d] < limit)&bit(!marked.taken(d)) != 0 {
				c = d
				break
			}
		}
		if c == overlay.NoPeer {
			break
		}
		if reserving && m.freeQuota(c) < 1 {
			continue // its free quota is promised to uploads in flight
		}
		// Both sides must accept: the two entries of the table that stand
		// for selection.AgreeCtx. Its entries are positive, so where one
		// is below 1, rng.Bool would draw a Float64 and compare.
		var age int64 // what every age clamps to when L is 0
		if L > 0 {
			// An accept-all table needs no age; joins is 8 B a slot read
			// at random, a cache miss at the paper's scale.
			age = min(max(round-joins[c], 0), L)
		}
		var u float64
		if pr := tab[L+ownerAge-age]; pr < 1 {
			if u, st = st.Float64(); u >= pr {
				continue
			}
		}
		if pr := tab[L+age-ownerAge]; pr < 1 {
			if u, st = st.Float64(); u >= pr {
				continue
			}
		}
		marks.setPooled(c)
		pool = append(pool, poolEntry{ref: m.tab.Ref(c), score: m.pol.Score(ctx, m.env.View(c))})
	}
	r.SetState(st)
	p.pool = pool
}

// bit is b as 0 or 1. The candidate screen ANDs three of them and
// branches once: a branch per test, each as likely to go either way,
// is mispredicted more often than not.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// takeBestPlaceable removes and returns the highest-scored pool entry
// that can receive a block right now (alive, online, quota available,
// not yet a partner), or NoPeer if none qualifies. Eligibility comes
// from the placeable flags planUpload — its sole caller — precomputed
// for this step; the tie-breaking scan order (first entry in current
// pool order wins among equal scores, swap-remove on take) is
// load-bearing for reproducibility and must not change.
func (m *Maintainer) takeBestPlaceable(id overlay.PeerID, p *peerState) overlay.PeerID {
	bestIdx := -1
	best := 0.0
	for i := range p.pool {
		e := &p.pool[i]
		if !e.placeable {
			continue
		}
		if bestIdx == -1 || e.score > best {
			bestIdx = i
			best = e.score
		}
	}
	if bestIdx == -1 {
		return overlay.NoPeer
	}
	chosen := p.pool[bestIdx].ref.ID
	last := len(p.pool) - 1
	p.pool[bestIdx] = p.pool[last]
	p.pool = p.pool[:last]
	return chosen
}
