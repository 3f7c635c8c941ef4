package maintenance

// Plan/apply maintenance: the v3 engine's parallel counterpart of Step.
//
// Step mutates the ledger as it goes, which is exactly what a
// shard-parallel maintenance phase cannot do: owners in different
// shards would race on host quota and on the shared partner-mark
// scratch. PlanStep therefore runs the *same* decision procedure
// against a frozen snapshot of the round (the ledger, table, transfer
// scheduler and score memo as they stand after the walk merge), records
// every intended side effect as a PlannedOp in a per-worker Workspace,
// and defers all mutation. ApplyPlan then executes the recorded ops
// sequentially, in canonical (shard, log) order, validating only the
// genuinely contended resource — host quota net of transfer
// reservations — at apply time.
//
// Why frozen reads are sound: during the plan phase nothing mutates the
// ledger, the table or the scheduler at all, so every read is
// race-free. During the apply phase an owner's own placement rows are
// mutated only by its own ops, no session flips or deaths occur, and
// candidate liveness/generation is stable; the only way one owner's
// apply can invalidate another's plan is by consuming host quota —
// which is why OpPlace/OpBeginUpload re-check freeQuota and skip on a
// lost race (the owner stays in stateUploading and retries next round,
// deterministically).
//
// Concurrency contract: PlanStep may run concurrently from one
// goroutine per disjoint owner set, each with its own Workspace and its
// own rng stream. It writes only owner-local state (the owner's
// peerState and pool) and Workspace-local scratch; it never touches the
// Maintainer's own Workspace, and it reads the score memo without
// storing misses. The one shared structure it reaches is the pool-buffer
// cache (a planned step takes a buffer to pool candidates in and returns
// it once the pool is empty), which is synchronised. ApplyPlan must run
// on a single goroutine.

import (
	"fmt"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// OpKind discriminates a PlannedOp.
type OpKind uint8

// Planned-op kinds, in the order a single step can emit them.
const (
	// OpDropOffline replays the decode point's offline write-off: the
	// apply phase re-runs the descending offline scan over the owner's
	// live placements (provably the same set the plan counted).
	OpDropOffline OpKind = iota
	// OpPlace places one block on Host (instant mode).
	OpPlace
	// OpBeginUpload enqueues one block transfer to Host (bandwidth mode).
	OpBeginUpload
)

// PlannedOp is one deferred ledger/scheduler mutation.
type PlannedOp struct {
	Kind OpKind
	Host overlay.PeerID
}

// PlanResult is one owner's planned step: the tentative outcome plus
// the half-open op range [OpStart, OpEnd) in the Workspace op log.
type PlanResult struct {
	Owner overlay.PeerID
	// Res is the step outcome as far as the plan could decide it
	// (cancellations, stalls and mid-upload rounds are final at plan
	// time; completions are not — see Completed).
	Res StepResult
	// Completed marks an instant-mode step whose planned placements
	// would finish the episode; ApplyPlan re-checks against the live
	// ledger and only then reports Repaired/InitialDone.
	Completed bool
	OpStart   int32
	OpEnd     int32
}

// Workspace is one plan-phase worker's scratch: its own mark epochs (the
// Maintainer's would race across workers), its op log and results.
type Workspace struct {
	// Ops and Results accumulate this worker's planned steps in owner
	// order; ApplyPlan consumes them in the same order.
	Ops     []PlannedOp
	Results []PlanResult

	marks   markSet
	hostBuf []overlay.PeerID
	// memoize lets score-memo misses be stored: set only on the
	// Maintainer's own Workspace, which Step uses single-threaded.
	memoize bool
}

// NewWorkspace returns a Workspace for a population of n slots.
func NewWorkspace(n int) *Workspace {
	return &Workspace{marks: newMarkSet(n)}
}

// Reset clears the op log and results for a new round. Mark epochs
// persist (a fresh epoch per pool refresh invalidates old marks).
func (ws *Workspace) Reset() {
	ws.Ops = ws.Ops[:0]
	ws.Results = ws.Results[:0]
}

// PlanStep plans one round of maintenance for an online owner against
// the frozen round state, appending one PlanResult (and any deferred
// ops) to the Workspace. It is the plan-phase mirror of Step: the
// decision structure, the pool sampling and the rng draw order are
// identical; only the mutations are deferred.
func (m *Maintainer) PlanStep(r *rng.Rand, id overlay.PeerID, ws *Workspace) {
	p := &m.peers[id]
	pr := PlanResult{Owner: id, OpStart: int32(len(ws.Ops))}
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
	pr.OpEnd = int32(len(ws.Ops))
	ws.Results = append(ws.Results, pr)
}

// planTriggered mirrors stepTriggered: cancellations, stalls and the
// RepairDelay hold commit at plan time (they touch only owner-local
// state); the decode point's offline write-off is counted now and
// deferred as OpDropOffline.
func (m *Maintainer) planTriggered(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult) {
	visible := m.led.Visible(id)
	if m.params.CancelOnRecover && visible >= m.threshold(id) {
		m.finishEpisode(p)
		pr.Res = StepResult{Outcome: OutcomeCanceled}
		return
	}
	m.refreshPool(r, id, p, ws)
	if visible < m.params.DataBlocks {
		pr.Res = StepResult{Outcome: OutcomeStalled}
		if !p.outage {
			p.outage = true
			pr.Res.OutageStarted = true
		}
		return
	}
	p.outage = false // decodable again; any new outage is a fresh event
	if p.waited < m.params.RepairDelay {
		p.waited++
		return // OutcomeNone
	}
	// Decode point: count the offline write-off against the frozen
	// placements; the drops themselves are deferred. No session flips or
	// deaths happen between plan and apply, and an owner's rows are
	// mutated only by its own (later) ops, so the apply-time re-scan
	// drops exactly the placements counted here.
	alive := m.led.Alive(id)
	if m.params.DropOffline {
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
			ws.Ops = append(ws.Ops, PlannedOp{Kind: OpDropOffline})
			p.dropped += dropped
			alive -= dropped
		}
	}
	if alive >= m.targetBlocks(id) {
		m.finishEpisode(p)
		pr.Res = StepResult{Outcome: OutcomeCanceled}
		return
	}
	p.st = stateUploading
	m.planUpload(r, id, p, ws, pr, alive)
}

// planUpload mirrors stepUpload against the frozen round state (the
// pool refresh is the same refreshPool, on the worker's scratch). alive
// is the owner's live block count net of drops planned this step.
func (m *Maintainer) planUpload(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult, alive int) {
	m.refreshPool(r, id, p, ws)
	if m.xfer != nil && !p.unmetered {
		m.planUploadTransfers(id, p, ws, alive)
		return // OutcomeNone; transfer completions finish episodes
	}
	for i := range p.pool {
		e := &p.pool[i]
		e.placeable = m.tab.Current(e.ref) &&
			m.led.Online(e.ref.ID) &&
			(p.unmetered || m.freeQuota(e.ref.ID) >= 1) &&
			!ws.marks.isPartner(e.ref.ID)
	}
	deficit := m.targetBlocks(id) - alive
	budget := m.params.UploadBudgetPerRound
	if budget <= 0 {
		budget = deficit // unlimited
	}
	for deficit > 0 && budget > 0 {
		best := m.takeBestPlaceable(id, p)
		if best == overlay.NoPeer {
			break
		}
		ws.Ops = append(ws.Ops, PlannedOp{Kind: OpPlace, Host: best})
		ws.marks.setPartner(best)
		p.uploaded++
		deficit--
		budget--
	}
	if deficit > 0 {
		return // OutcomeNone: keep going next round
	}
	// The planned placements would complete the episode; whether they
	// all land is decided at apply time (quota races skip placements).
	pr.Completed = true
}

// planUploadTransfers mirrors stepUploadTransfers: transfer begins are
// deferred as OpBeginUpload; the step outcome is always OutcomeNone.
func (m *Maintainer) planUploadTransfers(id overlay.PeerID, p *peerState, ws *Workspace, alive int) {
	for i := range p.pool {
		e := &p.pool[i]
		e.placeable = m.tab.Current(e.ref) &&
			m.led.Online(e.ref.ID) &&
			m.freeQuota(e.ref.ID) >= 1 &&
			!ws.marks.isPartner(e.ref.ID)
	}
	deficit := m.targetBlocks(id) - alive - m.xfer.Inflight(id)
	slots := m.xfer.UploadSlots(id)
	for deficit > 0 && slots > 0 {
		best := m.takeBestPlaceable(id, p)
		if best == overlay.NoPeer {
			break
		}
		ws.Ops = append(ws.Ops, PlannedOp{Kind: OpBeginUpload, Host: best})
		ws.marks.setPartner(best)
		deficit--
		slots--
	}
}

// ApplyPlan executes one owner's planned ops against the live ledger
// and scheduler, returning the step's final outcome. Must be called on
// a single goroutine, in the canonical (shard, log) order the plans
// were produced in.
func (m *Maintainer) ApplyPlan(ws *Workspace, pr *PlanResult) StepResult {
	id := pr.Owner
	p := &m.peers[id]
	for _, op := range ws.Ops[pr.OpStart:pr.OpEnd] {
		switch op.Kind {
		case OpDropOffline:
			for i := m.led.Alive(id) - 1; i >= 0; i-- {
				host, err := m.led.HostAt(id, i)
				if err != nil {
					panic(err)
				}
				if !m.led.Online(host) {
					if err := m.led.DropPlacementAt(id, i); err != nil {
						panic(err)
					}
				}
			}
		case OpPlace:
			if m.freeQuota(op.Host) < 1 {
				// Another owner's apply consumed the quota the plan saw.
				// Un-count the placement and retry next round: the pool
				// entry is already consumed, which is fine — the slot is
				// still uploading, armed and queued.
				p.uploaded--
				continue
			}
			m.place(id, p, op.Host)
		case OpBeginUpload:
			if m.freeQuota(op.Host) < 1 {
				continue // lost the reservation race; retry next round
			}
			m.xfer.BeginUpload(id, m.tab.Ref(op.Host))
		default:
			panic(fmt.Sprintf("maintenance: bad planned op %d", op.Kind))
		}
	}
	if pr.Completed {
		if m.led.Alive(id) >= m.targetBlocks(id) {
			res := StepResult{Uploaded: p.uploaded, Dropped: p.dropped}
			if p.included {
				res.Outcome = OutcomeRepaired
			} else {
				res.Outcome = OutcomeInitialDone
				p.included = true
			}
			m.finishEpisode(p)
			return res
		}
		return StepResult{Outcome: OutcomeNone} // quota races; stay uploading
	}
	return pr.Res
}

// ResetArchiveLocal is ResetArchive minus the ledger release: the v3
// walk runs the slot-local half during its parallel phase (peerState is
// owned by the slot's shard) and defers led.DropOwner — a shared-ledger
// mutation that fires watchers — to the engine's merge. The two halves
// together are exactly ResetArchive.
func (m *Maintainer) ResetArchiveLocal(id overlay.PeerID) {
	p := &m.peers[id]
	p.lossCheck = false
	m.abandonArchive(p)
	p.armed = true // the re-encoded archive needs a full upload
}
