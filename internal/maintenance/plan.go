package maintenance

// The §3.2 state machine, as plan and apply.
//
// A round of maintenance for one owner is decided by PlanStep against
// the frozen round state (the ledger, table and transfer scheduler as
// they stand after the churn walk's merge): it runs the
// whole decision procedure — trigger, cancel, stall, decode point, pool
// refresh, choice of hosts — commits what is owner-local, and records
// every ledger or scheduler mutation as a planned op in a Workspace.
// ApplyPlan then carries the ops out, sequentially and in canonical
// (shard, log) order, re-validating only the genuinely contended
// resource: host quota net of transfer reservations.
//
// Why frozen reads are sound: during the plan phase nothing mutates the
// ledger, the table or the scheduler at all, so every read is
// race-free. During the apply phase an owner's own placement rows are
// mutated only by its own ops, no session flips or deaths occur, and
// candidate liveness/generation is stable; the only way one owner's
// apply can invalidate another's plan is by consuming host quota —
// which is why a placement or transfer begin re-checks freeQuota and
// is skipped on a lost race (the owner stays in stateUploading and
// retries next round, deterministically).
//
// Concurrency contract: PlanStep may run concurrently from one
// goroutine per disjoint owner set, each with its own Workspace and its
// own rng stream. It writes only owner-local state (the owner's
// peerState and pool) and Workspace-local scratch, and the policy's
// Score it calls is pure (selection.Policy). The one shared structure
// it reaches is the pool-buffer cache (a planned step takes a buffer to
// pool candidates in and returns it once the pool is empty), which is
// synchronised. ApplyPlan must run on a single
// goroutine. Step is the two back to back on the Maintainer's own
// Workspace, for callers that act one owner at a time.

import (
	"fmt"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// opKind discriminates a plannedOp.
type opKind uint8

// Planned-op kinds, in the order a single step can emit them.
const (
	// opDropOffline replays the decode point's offline write-off: the
	// apply phase re-runs the descending offline scan over the owner's
	// live placements (provably the same set the plan counted).
	opDropOffline opKind = iota
	// opPlace places one block on the host (instant mode).
	opPlace
	// opBeginUpload enqueues one block transfer to the host (bandwidth
	// mode).
	opBeginUpload
)

// plannedOp is one deferred ledger/scheduler mutation, packed into a
// word — the kind in the top two bits, the host below — because a
// paper-scale population's first upload round logs millions of them.
type plannedOp uint32

const opHostBits = 30

func newOp(kind opKind, host overlay.PeerID) plannedOp {
	return plannedOp(kind)<<opHostBits | plannedOp(host)
}
func (op plannedOp) kind() opKind         { return opKind(op >> opHostBits) }
func (op plannedOp) host() overlay.PeerID { return overlay.PeerID(op & (1<<opHostBits - 1)) }

// PlanResult is one owner's planned step: the tentative outcome plus
// the half-open op range [opStart, opEnd) in the Workspace op log.
type PlanResult struct {
	Owner overlay.PeerID
	// res is the step outcome as far as the plan could decide it
	// (cancellations, stalls and mid-upload rounds are final at plan
	// time; completions are not — see completed).
	res StepResult
	// completed marks an instant-mode step whose planned placements
	// would finish the episode; ApplyPlan re-checks against the live
	// ledger and only then reports Repaired/InitialDone.
	completed bool
	opStart   int32
	opEnd     int32
}

// Workspace is one planner's scratch: its own mark epochs (shared ones
// would race across planners), its op log and results.
type Workspace struct {
	// Results accumulates this planner's steps in owner order; ApplyPlan
	// consumes them in the same order.
	Results []PlanResult

	ops     []plannedOp
	marks   markSet
	hostBuf []overlay.PeerID
	// group is the upload pick's current score group (takeBestPlaceable):
	// pool indices in ascending order, of which group[head:] are still
	// in the pool.
	group []int32
	head  int
}

// NewWorkspace returns a Workspace for a population of n slots.
func NewWorkspace(n int) *Workspace {
	return &Workspace{marks: newMarkSet(n)}
}

// Reset clears the op log and results for a new round. Mark epochs
// persist (a fresh epoch per pool refresh invalidates old marks).
func (ws *Workspace) Reset() {
	ws.ops = ws.ops[:0]
	ws.Results = ws.Results[:0]
}

// ReservePlans makes room in the Workspace for the steps the owners are
// about to plan, so that planning them reallocates nothing: one result
// per owner and, in the op log, one write-off plus at most as many
// hosts as the owner's upload budget, its deficit (at most its target
// less its visible blocks) and its pool after this round's sampling
// allow. The log of a population's first upload round is tens of
// megabytes; grown by append it would leave as much again as garbage.
func (m *Maintainer) ReservePlans(ws *Workspace, owners []overlay.PeerID) {
	ops := 0
	for _, id := range owners {
		n := min(m.targetBlocks(id)-m.led.Visible(id), len(m.peers[id].pool)+m.params.PoolSamplePerRound)
		if budget := m.params.UploadBudgetPerRound; budget > 0 {
			n = min(n, budget)
		}
		ops += max(n, 0) + 1
	}
	if cap(ws.ops)-len(ws.ops) < ops {
		ws.ops = append(make([]plannedOp, 0, len(ws.ops)+ops), ws.ops...)
	}
	if cap(ws.Results)-len(ws.Results) < len(owners) {
		ws.Results = append(make([]PlanResult, 0, len(ws.Results)+len(owners)), ws.Results...)
	}
}

// Step runs one round of maintenance for an online peer: PlanStep and
// ApplyPlan back to back on the Maintainer's own Workspace. The engine
// steps its observers with it, after the population's plans are applied.
func (m *Maintainer) Step(r *rng.Rand, id overlay.PeerID) StepResult {
	ws := &m.own
	ws.Reset()
	m.PlanStep(r, id, ws)
	return m.ApplyPlan(ws, &ws.Results[0])
}

// PlanStep plans one round of maintenance for an online owner against
// the frozen round state, appending one PlanResult (and any deferred
// ops) to the Workspace.
func (m *Maintainer) PlanStep(r *rng.Rand, id overlay.PeerID, ws *Workspace) {
	p := &m.peers[id]
	pr := PlanResult{Owner: id, opStart: int32(len(ws.ops))}
	if !p.included {
		// Initial (or post-loss) upload: straight to Uploading.
		if p.st == stateIdle {
			p.epStart = m.env.Round()
		}
		p.st = stateUploading
		m.planUpload(r, id, p, ws, &pr, m.led.Alive(id))
	} else {
		switch p.st {
		case stateIdle:
			if m.led.Visible(id) >= m.threshold(id) {
				// Spurious visit: nothing to do.
			} else {
				p.st = stateTriggered
				p.epStart = m.env.Round()
				m.planTriggered(r, id, p, ws, &pr)
			}
		case stateTriggered:
			m.planTriggered(r, id, p, ws, &pr)
		case stateUploading:
			m.planUpload(r, id, p, ws, &pr, m.led.Alive(id))
		default:
			panic(fmt.Sprintf("maintenance: bad state %d", p.st))
		}
	}
	m.releaseEmptyPool(p)
	pr.opEnd = int32(len(ws.ops))
	ws.Results = append(ws.Results, pr)
}

// planTriggered gathers candidates while waiting for the decode point.
// Cancellations, stalls and the RepairDelay hold commit at plan time
// (they touch only owner-local state); the decode point's offline
// write-off is counted now and deferred as opDropOffline.
func (m *Maintainer) planTriggered(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult) {
	visible := m.led.Visible(id)
	if visible >= m.threshold(id) {
		m.finishEpisode(p)
		pr.res = StepResult{Outcome: OutcomeCanceled}
		return
	}
	// Candidate gathering continues even while stalled; partners found
	// now shorten the upload phase.
	m.refreshPool(r, id, p, ws)
	if visible < m.params.DataBlocks {
		pr.res = StepResult{Outcome: OutcomeStalled}
		if !p.outage {
			p.outage = true
			pr.res.OutageStarted = true
		}
		return
	}
	p.outage = false // decodable again; any new outage is a fresh event
	if p.waited < m.params.RepairDelay {
		// Deliberately hold the repair: partners may come back and
		// cancel the whole episode.
		p.waited++
		return // OutcomeNone
	}
	// Decode point: download k blocks, re-encode, write off partners
	// considered gone. The write-off is counted against the frozen
	// placements and the drops themselves deferred: no session flips or
	// deaths happen between plan and apply, and an owner's rows are
	// mutated only by its own (later) ops, so the apply-time re-scan
	// drops exactly the placements counted here.
	alive := m.led.Alive(id)
	dropped := 0
	for i := alive - 1; i >= 0; i-- {
		host, err := m.led.HostAt(id, i)
		if err != nil {
			panic(err) // ledger indexes are engine-controlled
		}
		if !m.led.Online(host) {
			dropped++
		}
	}
	if dropped > 0 {
		ws.ops = append(ws.ops, newOp(opDropOffline, 0))
		p.dropped += dropped
		alive -= dropped
	}
	// What is left is the visible count, under the threshold and so
	// under the target: there is always something to upload.
	p.st = stateUploading
	m.planUpload(r, id, p, ws, pr, alive)
}

// planUpload picks the best-ranked placeable pool members for the
// blocks the archive is short of. alive is the owner's live block count
// net of drops planned this step. Instantly placed blocks are bounded by
// the round's upload budget and may complete the episode; under a
// transfer scheduler a metered owner begins transfers instead, bounded
// by the deficit net of blocks already on the wire and by its class's
// concurrency headroom, and the episode completes when the engine lands
// the last block through DeliverUpload, never here.
func (m *Maintainer) planUpload(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult, alive int) {
	m.refreshPool(r, id, p, ws)
	// Compute each pool entry's eligibility once: nothing the flags read
	// changes while plans are made, except that hosts this owner picks
	// leave its pool (and gain a partner mark) at that moment.
	// takeBestPlaceable's scans then read one precomputed flag per entry
	// instead of four ledger lookups.
	ws.group, ws.head = ws.group[:0], 0
	for i := range p.pool {
		e := &p.pool[i]
		e.placeable = m.tab.Current(e.ref) &&
			m.led.Online(e.ref.ID) &&
			(p.unmetered || m.freeQuota(e.ref.ID) >= 1) &&
			!ws.marks.isPartner(e.ref.ID)
	}
	kind := opPlace
	deficit := m.targetBlocks(id) - alive
	limit := m.params.UploadBudgetPerRound
	if limit <= 0 {
		limit = deficit // unlimited
	}
	if m.xfer != nil && !p.unmetered {
		kind = opBeginUpload
		deficit -= m.xfer.Inflight(id)
		limit = m.xfer.UploadSlots(id)
	}
	for deficit > 0 && limit > 0 {
		best := takeBestPlaceable(p, ws)
		if best == overlay.NoPeer {
			break
		}
		ws.ops = append(ws.ops, newOp(kind, best))
		// The host is booked; later picks in this step must see it so.
		ws.marks.setPartner(best)
		if kind == opPlace {
			p.uploaded++
		}
		deficit--
		limit--
	}
	// Planned placements that cover the deficit would complete the
	// episode; whether they all land is decided at apply time (quota
	// races skip placements). The episode is done with its pool either
	// way: leftover candidates go now, and the buffer with them, rather
	// than be held until the apply — an owner that then loses a quota
	// race samples afresh next round.
	if pr.completed = kind == opPlace && deficit <= 0; pr.completed {
		p.pool = p.pool[:0]
	}
}

// takeBestPlaceable removes and returns the highest-scored placeable
// pool entry, or NoPeer if none is placeable. Which entry that is, is
// load-bearing for reproducibility: the first in pool order among equal
// scores, as one fold over the pool finds it, with the taken entry's
// place filled by the pool's last (swap-remove).
//
// It does not fold the pool once per pick. One scan (scoreGroup)
// collects the score group, the placeable entries whose score equals
// the fold's best, in ascending pool order, and picks come off its
// front. A swap-remove moves only the pool's last entry. If that entry
// is a member, it was the group's largest index, and at the taken
// entry's place it is now the smallest, so it leaves the group's back
// for its front. When the group is spent the next pick scans again.
//
// A NaN score breaks this: the fold takes a NaN that comes first and
// passes over one that comes later, so a NaN that a swap moves to the
// front would be taken next. When the scan sees a placeable NaN, the
// group keeps only the fold's pick, and so each of that step's picks
// scans the pool.
func takeBestPlaceable(p *peerState, ws *Workspace) overlay.PeerID {
	if ws.head == len(ws.group) {
		ws.group, ws.head = scoreGroup(p.pool, ws.group[:0]), 0
		if len(ws.group) == 0 {
			return overlay.NoPeer
		}
	}
	g := ws.group[ws.head]
	chosen := p.pool[g].ref.ID
	last := int32(len(p.pool) - 1)
	p.pool[g] = p.pool[last]
	p.pool = p.pool[:last]
	if end := len(ws.group) - 1; g != last && ws.group[end] == last {
		ws.group = ws.group[:end] // the moved member is the front now, at g
	} else {
		ws.head++
	}
	return chosen
}

// scoreGroup appends to group, in ascending order, the indices of the
// placeable pool entries whose score equals the one a fold over the
// pool picks (the first placeable entry's, replaced by any strictly
// greater), or only the fold's pick if some placeable score is NaN.
func scoreGroup(pool []poolEntry, group []int32) []int32 {
	i := 0
	for i < len(pool) && !pool[i].placeable {
		i++
	}
	if i == len(pool) {
		return group
	}
	best, nan := pool[i].score, false
	group = append(group, int32(i))
	for i++; i < len(pool); i++ {
		e := &pool[i]
		switch {
		case !e.placeable || e.score < best:
		case e.score > best:
			group = append(group[:0], int32(i))
			best = e.score
		case e.score == best:
			group = append(group, int32(i))
		default: // a NaN, or any score after a NaN that came first
			nan = true
		}
	}
	if nan {
		group = group[:1]
	}
	return group
}

// ApplyPlan executes one owner's planned ops against the live ledger
// and scheduler, returning the step's final outcome. Must be called on
// a single goroutine, in the canonical (shard, log) order the plans
// were produced in.
func (m *Maintainer) ApplyPlan(ws *Workspace, pr *PlanResult) StepResult {
	id := pr.Owner
	p := &m.peers[id]
	for _, op := range ws.ops[pr.opStart:pr.opEnd] {
		switch op.kind() {
		case opDropOffline:
			m.dropOffline(id, 0)
		case opPlace:
			// A quota-exempt owner's plan took the host whatever its
			// quota, and so does its apply.
			if !p.unmetered && m.freeQuota(op.host()) < 1 {
				// Another owner's apply consumed the quota the plan saw.
				// Un-count the placement and retry next round: the pool
				// entry is already consumed, which is fine — the slot is
				// still uploading, armed and queued.
				p.uploaded--
				continue
			}
			m.place(id, p, op.host())
		case opBeginUpload:
			if m.freeQuota(op.host()) < 1 {
				continue // lost the reservation race; retry next round
			}
			m.xfer.BeginUpload(id, m.tab.Ref(op.host()))
		default:
			panic(fmt.Sprintf("maintenance: bad planned op %d", op.kind()))
		}
	}
	if pr.completed {
		if m.led.Alive(id) >= m.targetBlocks(id) {
			return m.completeEpisode(p)
		}
		return StepResult{Outcome: OutcomeNone} // quota races; stay uploading
	}
	return pr.res
}

// ResetArchiveLocal is ResetArchive minus the ledger release: the
// engine's walk runs the slot-local half during its parallel phase
// (peerState is owned by the slot's shard) and defers led.DropOwner — a
// shared-ledger mutation that fires watchers — to its merge. The two
// halves together are exactly ResetArchive.
func (m *Maintainer) ResetArchiveLocal(id overlay.PeerID) {
	p := &m.peers[id]
	p.lossCheck = false
	m.abandonArchive(p)
	p.armed = true // the re-encoded archive needs a full upload
}
