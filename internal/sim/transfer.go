package sim

// Transfer integration: the engine drives a transfer.Scheduler, which
// owns every in-flight transfer and the order completions land in.
// With Config.BandwidthSpec set (and not instant), maintenance enqueues
// block transfers instead of placing instantly; the round lands what
// the scheduler's PopDue hands out before its maintenance phase, and
// session flips / deaths suspend, resume or abort the flows they
// interrupt. Without a BandwidthSpec (and with no Restores) there is no
// scheduler and the engine byte-matches its pre-transfer behaviour.

import (
	"fmt"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/transfer"
)

// RestoreSpec schedules a restore-demand event: at Round, each included
// population peer independently demands its archive back with
// probability Fraction (local disk crash, or the mass "give me my data"
// wave after a correlated failure — the flash crowd). A restoring peer
// downloads k blocks over its downlink; demand on a peer already
// restoring, or not yet backed up, is dropped.
type RestoreSpec struct {
	// Name labels the event in reports.
	Name string
	// Round is the demand round.
	Round int64
	// Fraction in (0, 1] is the per-peer demand probability.
	Fraction float64
}

// Validate checks one restore spec.
func (sp RestoreSpec) Validate() error {
	if sp.Fraction <= 0 || sp.Fraction > 1 {
		return fmt.Errorf("sim: restore %q fraction %v outside (0,1]", sp.Name, sp.Fraction)
	}
	if sp.Round < 0 {
		return fmt.Errorf("sim: restore %q scheduled at negative round %d", sp.Name, sp.Round)
	}
	return nil
}

// transferEvent builds the probe payload for a transfer at the given
// round.
func transferEvent(round int64, t *transfer.Transfer) TransferEvent {
	host := -1
	if t.Kind == transfer.Upload {
		host = int(t.Host.ID)
	}
	return TransferEvent{
		Round:   round,
		ID:      t.ID,
		Kind:    t.Kind,
		Owner:   int(t.Owner.ID),
		Host:    host,
		Blocks:  t.Blocks,
		Elapsed: round - t.Enqueued,
	}
}

// emitTransfer dispatches one transfer lifecycle event.
func (s *Simulation) emitTransfer(kind int, ev TransferEvent) {
	for _, pr := range s.dispatch[kind] {
		switch kind {
		case evTransferStart:
			pr.OnTransferStart(ev)
		case evTransferComplete:
			pr.OnTransferComplete(ev)
		case evTransferAbort:
			pr.OnTransferAbort(ev)
		}
	}
}

// stepRestores fires this round's restore-demand events, before churn
// so the demand draw order is a pure function of the round. The demand
// coin is flipped for every population slot in ascending order
// regardless of eligibility, keeping the rng stream independent of
// protocol state.
func (s *Simulation) stepRestores(round int64) {
	for i := range s.cfg.Restores {
		sp := &s.cfg.Restores[i]
		if sp.Round != round {
			continue
		}
		for id := 0; id < s.cfg.NumPeers; id++ {
			if sp.Fraction < 1 && !s.r.Bool(sp.Fraction) {
				continue
			}
			s.startRestore(round, overlay.PeerID(id))
		}
	}
}

// startRestore enqueues an archive restore for a peer, if it has a
// complete archive and is not already restoring. An offline demander's
// download starts suspended and resumes with its session.
func (s *Simulation) startRestore(round int64, id overlay.PeerID) {
	if !s.maint.Included(id) {
		return
	}
	t := s.xfer.EnqueueRestore(round, s.tab.Ref(id), s.cfg.DataBlocks)
	if t == nil {
		return // already restoring
	}
	s.emitTransfer(evTransferStart, transferEvent(round, t))
	if !s.peers[id].online {
		s.xfer.SuspendPeer(id, round)
	}
}

// stepTransfers lands this round's due completions, in the order the
// scheduler hands them out, after the churn walk: a death or offline
// event in the same round wins over the completion (the transfer
// aborted or suspended before it could land).
func (s *Simulation) stepTransfers(round int64) {
	for t := s.xfer.PopDue(round); t != nil; t = s.xfer.PopDue(round) {
		if t.Kind == transfer.Upload {
			s.completeUpload(round, t)
		} else {
			s.completeRestore(round, t)
		}
	}
}

// completeUpload lands one block: the scheduler releases its
// reservation, the maintainer places the block, and if it was the
// episode's last the repair is reported as the instant path reports
// it at apply time.
func (s *Simulation) completeUpload(round int64, t *transfer.Transfer) {
	owner, host := t.Owner, t.Host
	if !s.tab.Current(owner) || !s.tab.Current(host) {
		// Deaths abort transfers before completions run; a stale
		// endpoint here means an abort hook was missed.
		panic(fmt.Sprintf("sim: transfer %d completing with stale endpoint (%d->%d)", t.ID, owner.ID, host.ID))
	}
	s.xfer.Complete(t)
	res := s.maint.DeliverUpload(owner.ID, host.ID)
	s.emitTransfer(evTransferComplete, transferEvent(round, t))
	s.emitMaintOutcome(round, owner.ID, res)
}

// completeRestore finishes an archive download — if enough blocks are
// visible to decode. A restore that finds fewer than k blocks visible
// keeps polling: the bits flowed, but the archive cannot be rebuilt
// until enough partners are back.
func (s *Simulation) completeRestore(round int64, t *transfer.Transfer) {
	id := t.Owner.ID
	if !s.tab.Current(t.Owner) {
		panic(fmt.Sprintf("sim: restore %d completing for stale owner %d", t.ID, id))
	}
	if s.led.Visible(id) < s.cfg.DataBlocks {
		s.xfer.Retry(t, round)
		return
	}
	s.xfer.Complete(t)
	s.emitTransfer(evTransferComplete, transferEvent(round, t))
}

// peerOnline reports a population slot's session state (the scheduler's
// resume predicate).
func (s *Simulation) peerOnline(id overlay.PeerID) bool { return s.peers[id].online }

// emitAborts reports transfers the scheduler aborted: every transfer a
// departing peer touched, or the ones a reset archive owned.
func (s *Simulation) emitAborts(round int64, aborted []*transfer.Transfer) {
	for _, t := range aborted {
		s.emitTransfer(evTransferAbort, transferEvent(round, t))
	}
}

// simXfer adapts the scheduler to maintenance.Transfers: the scheduler
// answers the capacity questions itself, and BeginUpload adds the
// start event. Only installed when the class mix is non-instant.
type simXfer struct {
	*transfer.Scheduler
	s *Simulation
}

// BeginUpload implements maintenance.Transfers: enqueue one block on
// the owner's uplink and report its start.
func (e simXfer) BeginUpload(owner overlay.PeerID, host overlay.Ref) {
	s := e.s
	t := e.EnqueueUpload(s.round, s.tab.Ref(owner), host)
	s.emitTransfer(evTransferStart, transferEvent(s.round, t))
}
