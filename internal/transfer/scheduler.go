package transfer

import (
	"fmt"
	"math"
	"sort"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// Kind distinguishes the two transfer directions the engine schedules.
type Kind uint8

const (
	// Upload pushes one block from an archive owner to a host (repair
	// and initial-backup traffic).
	Upload Kind = iota
	// Restore pulls the k blocks an owner needs to rebuild its archive
	// after local data loss (flash-crowd demand).
	Restore
)

var kindNames = [...]string{"upload", "restore"}

// String returns the kind's name for events and reports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// farFuture is a completion round beyond any simulation horizon,
// guarding the int64 conversion of unbounded virtual times.
const farFuture = math.MaxInt64 / 4

// Transfer is one in-flight block movement. Endpoints are generation-
// stamped refs: a slot reused by a new occupant makes the old ref
// stale, which is what keeps an interrupted transfer from delivering
// blocks to (or from) the wrong identity.
type Transfer struct {
	// ID orders transfers deterministically (ascending = enqueue order).
	ID int64
	// Kind is the direction: Upload (owner pushes to Host) or Restore
	// (owner pulls its archive; Host is unset).
	Kind Kind
	// Owner is the archive owner: the uploader of an Upload, the
	// downloader of a Restore.
	Owner overlay.Ref
	// Host is the receiving partner of an Upload.
	Host overlay.Ref
	// Blocks is the transfer size; Remaining what still has to flow
	// (equal until a Restart-policy suspension resets progress).
	Blocks    float64
	Remaining float64
	// Rate is the effective flow in blocks per round: the min of the
	// source's up rate and the sink's down rate. 0 = instant.
	Rate float64
	// Enqueued is the demand round; CompleteAt the scheduled completion
	// round; startAt the virtual time flow begins (the uplink may be
	// backlogged).
	Enqueued   int64
	CompleteAt int64
	startAt    float64
	// Suspended marks a transfer interrupted by an endpoint going
	// offline; its CompleteAt is void until it resumes.
	Suspended bool
}

// dueEntry is one queued completion in the scheduler's min-heap,
// ordered by (round, tid). Entries are lazily invalidated: a transfer
// suspended, rescheduled or finalised after its entry was pushed leaves
// the stale entry behind, and PopDue discards entries whose transfer no
// longer completes at the recorded round.
type dueEntry struct {
	round int64
	tid   int64
}

// Scheduler tracks every in-flight transfer and each peer's link
// occupancy. It is driven by the simulation engine and is not safe for
// concurrent use.
//
// Timing model: each peer's uploads serialise on its uplink in virtual
// time. A transfer enqueued at round r starts at max(r, uplink-free)
// and flows at min(up[src], down[dst]) blocks per round; the uplink is
// then busy until the flow ends. Completions are therefore a
// deterministic function of the enqueue sequence — the scheduler
// consumes no randomness. Downlinks are booked the same way for
// restores; upload fan-in to a host is deliberately not serialised
// (home downlinks are an order of magnitude faster than uplinks, and
// quota already bounds fan-in).
//
// Every method that sets a CompleteAt queues the completion, and
// PopDue hands due transfers back in (CompleteAt, ID) order: the
// scheduler is the one place that knows when and in what order
// transfers land.
type Scheduler struct {
	params *Params

	class    []int32   // per slot: class index
	upFree   []float64 // per slot: virtual round the uplink frees up
	downFree []float64 // per slot: virtual round the downlink frees up
	inflight []int32   // per slot: outstanding outgoing uploads
	reserved []int32   // per slot: host quota reserved by in-flight uploads

	// byPeer lists the transfer ids touching each slot (as owner or
	// host), so interruption hooks never scan the global table.
	byPeer [][]int64
	xfers  map[int64]*Transfer
	nextID int64
	due    []dueEntry // completion min-heap; see dueEntry

	tidBuf []int64 // scratch: sorted ids for suspend/resume/abort sweeps
}

// NewScheduler returns a scheduler for a population of n slots. The
// params must come from Parse, which normalises them; nil is the
// instant mix, what a config that only schedules restores runs on.
func NewScheduler(params *Params, n int) *Scheduler {
	if params == nil {
		// One class of proportion 1 is already what Validate returns.
		params = instantParams()
	}
	return &Scheduler{
		params:   params,
		class:    make([]int32, n),
		upFree:   make([]float64, n),
		downFree: make([]float64, n),
		inflight: make([]int32, n),
		reserved: make([]int32, n),
		byPeer:   make([][]int64, n),
		xfers:    make(map[int64]*Transfer),
	}
}

// AssignClass (re)binds a slot to a bandwidth class drawn from r (see
// Params.SampleIndex: a one-class mix draws nothing) and clears the
// occupant-specific link state: a fresh identity starts with idle
// links. The slot must have no in-flight transfers (abort first). It
// writes only the slot's own state, so distinct slots may be assigned
// concurrently.
func (s *Scheduler) AssignClass(id overlay.PeerID, r *rng.Rand) {
	s.class[id] = int32(s.params.SampleIndex(r))
	s.upFree[id] = 0
	s.downFree[id] = 0
}

// Inflight returns a slot's outstanding outgoing upload count.
func (s *Scheduler) Inflight(id overlay.PeerID) int { return int(s.inflight[id]) }

// Reserved returns the host quota reserved by uploads in flight toward
// the slot.
func (s *Scheduler) Reserved(id overlay.PeerID) int { return int(s.reserved[id]) }

// UploadSlots returns how many more uploads the slot may start now
// under its class's concurrency cap.
func (s *Scheduler) UploadSlots(id overlay.PeerID) int {
	cap := s.params.Classes[s.class[id]].MaxInflight
	if cap <= 0 {
		return math.MaxInt32
	}
	free := cap - int(s.inflight[id])
	if free < 0 {
		return 0
	}
	return free
}

// PendingHosts appends the hosts of the owner's in-flight uploads to
// buf: the partners a new placement round must not double-book.
func (s *Scheduler) PendingHosts(owner overlay.PeerID, buf []overlay.PeerID) []overlay.PeerID {
	for _, tid := range s.byPeer[owner] {
		t := s.xfers[tid]
		if t.Kind == Upload && t.Owner.ID == owner {
			buf = append(buf, t.Host.ID)
		}
	}
	return buf
}

// dueLess orders heap entries by (round, tid): tid is the tiebreak
// that makes same-round completions land in enqueue order.
func dueLess(a, b dueEntry) bool {
	if a.round != b.round {
		return a.round < b.round
	}
	return a.tid < b.tid
}

// duePush adds a completion entry to the heap.
func (s *Scheduler) duePush(e dueEntry) {
	s.due = append(s.due, e)
	i := len(s.due) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !dueLess(s.due[i], s.due[parent]) {
			break
		}
		s.due[i], s.due[parent] = s.due[parent], s.due[i]
		i = parent
	}
}

// duePop removes and returns the earliest entry.
func (s *Scheduler) duePop() dueEntry {
	top := s.due[0]
	last := len(s.due) - 1
	s.due[0] = s.due[last]
	s.due = s.due[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.due) && dueLess(s.due[l], s.due[small]) {
			small = l
		}
		if r < len(s.due) && dueLess(s.due[r], s.due[small]) {
			small = r
		}
		if small == i {
			return top
		}
		s.due[i], s.due[small] = s.due[small], s.due[i]
		i = small
	}
}

// queue records a transfer's (possibly new) completion round.
func (s *Scheduler) queue(t *Transfer) {
	s.duePush(dueEntry{round: t.CompleteAt, tid: t.ID})
}

// PopDue returns the next transfer due by round, in (CompleteAt, ID)
// order, or nil when none is. Suspended, rescheduled and finalised
// transfers are skipped. The caller lands the transfer with Complete
// or defers it with Retry; each is returned once per CompleteAt.
func (s *Scheduler) PopDue(round int64) *Transfer {
	for len(s.due) > 0 && s.due[0].round <= round {
		e := s.duePop()
		t, ok := s.xfers[e.tid]
		if !ok || t.Suspended || t.CompleteAt != e.round {
			continue
		}
		return t
	}
	return nil
}

// effRate returns the flow rate of a src-to-dst transfer: the min of
// the non-zero (finite) directions, 0 when both are infinite.
func effRate(up, down float64) float64 {
	switch {
	case up == 0:
		return down
	case down == 0:
		return up
	case down < up:
		return down
	default:
		return up
	}
}

// book schedules a flow of blocks on a link whose free time is *free,
// starting no earlier than round, and returns the start and completion
// round. The link is busy until the flow ends.
func book(free *float64, round int64, blocks, rate float64) (startAt float64, completeAt int64) {
	if rate <= 0 {
		return float64(round), round + 1 // instant: lands next round
	}
	start := float64(round)
	if *free > start {
		start = *free
	}
	end := start + blocks/rate
	*free = end
	done := int64(farFuture)
	if end < farFuture {
		done = int64(math.Ceil(end))
	}
	if done <= round {
		done = round + 1
	}
	return start, done
}

// EnqueueUpload schedules one block from owner to host starting this
// round: books the owner's uplink, reserves one unit of host quota,
// and counts against the owner's concurrency cap. The caller is
// responsible for honouring UploadSlots and quota-minus-Reserved
// before enqueueing.
func (s *Scheduler) EnqueueUpload(round int64, owner, host overlay.Ref) *Transfer {
	rate := effRate(s.params.Classes[s.class[owner.ID]].Up, s.params.Classes[s.class[host.ID]].Down)
	t := &Transfer{
		ID:        s.nextID,
		Kind:      Upload,
		Owner:     owner,
		Host:      host,
		Blocks:    1,
		Remaining: 1,
		Rate:      rate,
		Enqueued:  round,
	}
	s.nextID++
	t.startAt, t.CompleteAt = book(&s.upFree[owner.ID], round, t.Remaining, rate)
	s.inflight[owner.ID]++
	s.reserved[host.ID]++
	s.byPeer[owner.ID] = append(s.byPeer[owner.ID], t.ID)
	s.byPeer[host.ID] = append(s.byPeer[host.ID], t.ID)
	s.xfers[t.ID] = t
	s.queue(t)
	return t
}

// EnqueueRestore schedules an archive restore: blocks (the code's k)
// flowing down the owner's downlink. An owner restores one archive at
// a time: while its restore is in flight a second is refused (nil).
func (s *Scheduler) EnqueueRestore(round int64, owner overlay.Ref, blocks int) *Transfer {
	for _, tid := range s.byPeer[owner.ID] {
		if t := s.xfers[tid]; t.Kind == Restore && t.Owner.ID == owner.ID {
			return nil
		}
	}
	rate := s.params.Classes[s.class[owner.ID]].Down
	t := &Transfer{
		ID:        s.nextID,
		Kind:      Restore,
		Owner:     owner,
		Host:      overlay.Ref{ID: overlay.NoPeer},
		Blocks:    float64(blocks),
		Remaining: float64(blocks),
		Rate:      rate,
		Enqueued:  round,
	}
	s.nextID++
	t.startAt, t.CompleteAt = book(&s.downFree[owner.ID], round, t.Remaining, rate)
	s.byPeer[owner.ID] = append(s.byPeer[owner.ID], t.ID)
	s.xfers[t.ID] = t
	s.queue(t)
	return t
}

// Retry defers a transfer whose completion found its precondition
// unmet (a restore with too few visible blocks) to the next round.
func (s *Scheduler) Retry(t *Transfer, round int64) {
	t.CompleteAt = round + 1
	s.queue(t)
}

// Complete finalises a delivered transfer: reservations and caps are
// released and the transfer forgotten.
func (s *Scheduler) Complete(t *Transfer) { s.finalize(t) }

// finalize releases a transfer's accounting and removes it.
func (s *Scheduler) finalize(t *Transfer) {
	if t.Kind == Upload {
		s.inflight[t.Owner.ID]--
		s.reserved[t.Host.ID]--
		s.dropRef(t.Host.ID, t.ID)
	}
	s.dropRef(t.Owner.ID, t.ID)
	delete(s.xfers, t.ID)
}

// dropRef removes a transfer id from a slot's touch list.
func (s *Scheduler) dropRef(id overlay.PeerID, tid int64) {
	list := s.byPeer[id]
	for i, v := range list {
		if v == tid {
			list[i] = list[len(list)-1]
			s.byPeer[id] = list[:len(list)-1]
			return
		}
	}
}

// touching collects the slot's transfer ids in ascending id order
// (enqueue order), the canonical iteration order for interruption
// sweeps — byPeer's swap-removes leave the raw lists unordered.
func (s *Scheduler) touching(id overlay.PeerID) []int64 {
	s.tidBuf = append(s.tidBuf[:0], s.byPeer[id]...)
	sort.Slice(s.tidBuf, func(i, j int) bool { return s.tidBuf[i] < s.tidBuf[j] })
	return s.tidBuf
}

// SuspendPeer interrupts every active transfer touching an endpoint
// that just went offline. Progress follows the resume policy: Resume
// banks the blocks that flowed before round, Restart discards them.
// The uplink's (and downlink's) unflowed bookings are rewound so
// resumption re-books only what remains.
func (s *Scheduler) SuspendPeer(id overlay.PeerID, round int64) {
	// Rewind this peer's own link bookings: everything unflowed will be
	// re-booked at resume, and new transfers must not queue behind
	// phantom occupancy.
	if s.upFree[id] > float64(round) {
		s.upFree[id] = float64(round)
	}
	if s.downFree[id] > float64(round) {
		s.downFree[id] = float64(round)
	}
	for _, tid := range s.touching(id) {
		t := s.xfers[tid]
		if t.Suspended {
			continue
		}
		if t.Rate > 0 {
			switch s.params.Policy {
			case Resume:
				flowed := (float64(round) - t.startAt) * t.Rate
				if flowed < 0 {
					flowed = 0
				}
				if flowed > t.Remaining {
					flowed = t.Remaining
				}
				t.Remaining -= flowed
			case Restart:
				t.Remaining = t.Blocks
			}
		}
		t.Suspended = true
	}
}

// ResumePeer re-books the suspended transfers touching a peer that
// just came back online, in ascending id order, skipping those whose
// other endpoint is still offline, and queues their new completions.
// online reports an arbitrary slot's session state.
func (s *Scheduler) ResumePeer(id overlay.PeerID, round int64, online func(overlay.PeerID) bool) {
	for _, tid := range s.touching(id) {
		t := s.xfers[tid]
		if !t.Suspended {
			continue
		}
		other := t.Owner.ID
		if other == id {
			if t.Kind == Upload {
				other = t.Host.ID
			} else {
				other = overlay.NoPeer // restores have one endpoint
			}
		}
		if other != overlay.NoPeer && !online(other) {
			continue
		}
		t.Suspended = false
		if t.Kind == Upload {
			t.startAt, t.CompleteAt = book(&s.upFree[t.Owner.ID], round, t.Remaining, t.Rate)
		} else {
			t.startAt, t.CompleteAt = book(&s.downFree[t.Owner.ID], round, t.Remaining, t.Rate)
		}
		s.queue(t)
	}
}

// AbortPeer kills every transfer touching a departing endpoint,
// releasing reservations and caps, and returns the aborted transfers
// in ascending id order (for event emission).
func (s *Scheduler) AbortPeer(id overlay.PeerID) []*Transfer {
	var aborted []*Transfer
	for _, tid := range s.touching(id) {
		t := s.xfers[tid]
		s.finalize(t)
		aborted = append(aborted, t)
	}
	return aborted
}

// AbortOwner kills the transfers owned by a slot — its outgoing
// uploads and its restore — leaving transfers it merely hosts intact.
// Used when an owner's archive is reset (hard loss): the in-flight
// blocks belong to the abandoned archive.
func (s *Scheduler) AbortOwner(id overlay.PeerID) []*Transfer {
	var aborted []*Transfer
	for _, tid := range s.touching(id) {
		t := s.xfers[tid]
		if t.Owner.ID != id {
			continue
		}
		s.finalize(t)
		aborted = append(aborted, t)
	}
	return aborted
}
