// Package overlay maintains the simulator's bookkeeping of who stores
// blocks for whom: a doubly-indexed adjacency between block owners and
// block hosts with O(1) placement and removal, incremental visible/alive
// counters, quota accounting, and generation-stamped peer references.
//
// This is the PeerSim-equivalent substrate: with 25,000 peers each
// placing 256 blocks, the naive "every peer scans its partner list every
// round" costs billions of operations; instead the Ledger updates each
// owner's visible-block counter only when one of its hosts changes
// session state or dies, making the per-round cost proportional to the
// number of churn events.
//
// Paper mapping (in the style of internal/selection):
//
//	§2.2.1 "one block per partner"  Ledger.Place rejects duplicate (owner, host) pairs
//	§2.2.1 storage quota            Ledger quota accounting (the paper's 384-block cap)
//	§3.1   immediate replacement    PeerID slots + Table generation stamps: a departed
//	                                peer's slot is reused and stale references invalidated
//	§3.1   "blocks disappear"       RemovePeer drops both hosted and owned placements
//	§4.2.2 observers                unmetered placements (observer blocks consume no quota)
//
// The visible counter (blocks on currently-online hosts) is the
// quantity the maintenance trigger of §2.2.3 compares against k'.
package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// PeerID indexes a peer slot. The population is fixed; a departing peer
// is immediately replaced in the same slot (the paper's model), with the
// slot's generation bumped to invalidate stale references.
type PeerID int32

// NoPeer is the invalid peer id.
const NoPeer PeerID = -1

// Placement errors.
var (
	ErrQuotaFull    = errors.New("overlay: host quota exhausted")
	ErrSelfStore    = errors.New("overlay: a peer cannot host its own block")
	ErrDuplicate    = errors.New("overlay: host already stores a block for this owner")
	ErrBadPeer      = errors.New("overlay: peer id out of range")
	ErrBadPlacement = errors.New("overlay: placement index out of range")
)

// placement is one block stored by owner on host, packed into 32 bits:
// the host's id in the ledger's low id bits, the index of the mirror
// entry in the host's reverse list above them, and the unmetered flag
// (an observer placement that does not consume the host's quota) at bit
// 31. A paper-scale run reserves 6.4 million of them, so each byte here
// is 6 MiB there. With b id bits the index has 31−b bits: 16 at 25 000
// slots, 11 at a million, against a reverse list bounded by the quota
// plus the observer count.
type placement uint32

// hostEntry mirrors a placement from the host's side: the owner's id in
// the low id bits and the index of the placement in the owner's forward
// list in the 32−b bits above them.
type hostEntry uint32

// unmeteredBit flags an observer placement.
const unmeteredBit = 1 << 31

// split is how a ledger packs an adjacency entry: a peer id in the low
// bits, a list index above them. Its decoders are one mask or one shift
// and inline into the ledger's loops, which copy the split into a local
// so the mask stays in a register.
type split struct {
	bits uint8  // id width: enough for every slot of the ledger
	mask uint32 // 1<<bits − 1
}

// maxHostIdx is the largest reverse-list index a placement can hold.
func (s split) maxHostIdx() int { return int(uint32(math.MaxInt32) >> s.bits) }

// maxOwnerIdx is the largest forward-list index a host entry can hold.
func (s split) maxOwnerIdx() int { return int(uint32(math.MaxUint32) >> s.bits) }

func (s split) placement(host PeerID, hostIdx int32, unmetered bool) placement {
	p := placement(uint32(host) | uint32(hostIdx)<<s.bits)
	if unmetered {
		p |= unmeteredBit
	}
	return p
}

func (s split) hostEntry(owner PeerID, ownerIdx int32) hostEntry {
	return hostEntry(uint32(owner) | uint32(ownerIdx)<<s.bits)
}

func (s split) host(p placement) PeerID { return PeerID(uint32(p) & s.mask) }

// hostIdx returns the index of the mirror entry in the host's reverse
// list.
func (s split) hostIdx(p placement) int32 { return int32(uint32(p) &^ unmeteredBit >> s.bits) }

func (s split) owner(e hostEntry) PeerID { return PeerID(s.ownerSlot(e)) }

// ownerSlot is owner as an unsigned index: SetOnline's loop indexes the
// owners' counters with it, which spares it a sign extension per entry.
func (s split) ownerSlot(e hostEntry) uint32 { return uint32(e) & s.mask }

func (s split) ownerIdx(e hostEntry) int32 { return int32(uint32(e) >> s.bits) }

// withHostIdx repoints a placement at a moved mirror entry, keeping its
// host and unmetered flag.
func (s split) withHostIdx(p placement, idx int32) placement {
	return p&(unmeteredBit|placement(s.mask)) | placement(uint32(idx)<<s.bits)
}

// withOwnerIdx repoints a host entry at a moved placement.
func (s split) withOwnerIdx(e hostEntry, idx int32) hostEntry {
	return e&hostEntry(s.mask) | hostEntry(uint32(idx)<<s.bits)
}

// unmetered reports whether the placement is exempt from the host's
// quota.
func (p placement) unmetered() bool { return p&unmeteredBit != 0 }

// Watcher receives threshold-crossing notifications from the ledger's
// incremental counters. The ledger calls it synchronously from inside
// SetOnline, RemoveHost, RemovePeer, DropOwner and DropPlacementAt, at
// the exact moment a counter crosses below its configured threshold,
// and from CommitFlips once per owner a committed batch of flips took
// below it — this is what lets the maintenance layer keep an
// incrementally maintained set of peers with pending work instead of
// polling every peer every round. Callbacks must not mutate the ledger
// (the notifying operation is still in flight) and must be cheap: one
// fires per crossing, on the simulation hot path.
type Watcher interface {
	// VisibleBelow fires when owner's visible-block count crosses from
	// >= the visible threshold to below it (the repair trigger of the
	// paper's section 2.2.3).
	VisibleBelow(owner PeerID)
	// AliveBelow fires when owner's alive-block count crosses from >=
	// the alive threshold to below it (archive-loss territory: fewer
	// than k blocks survive on living hosts).
	AliveBelow(owner PeerID)
}

// Ledger tracks all block placements. It is not safe for concurrent
// use; each simulation run owns one Ledger.
type Ledger struct {
	fwd     [][]placement // per owner: where its blocks are
	rev     [][]hostEntry // per host: whose blocks it stores
	metered []int32       // per host: quota-consuming blocks stored
	visible []int32       // per owner: blocks on online hosts
	online  []bool        // per host: current session state
	quota   int32
	split   split
	strict  bool

	watcher  Watcher
	visThr   int32 // VisibleBelow fires on crossings below this
	aliveThr int32 // AliveBelow fires on crossings below this
}

// NewLedger returns a ledger for n peer slots with the given per-host
// block quota (the paper's quota is 384). All peers start online with
// no placements.
func NewLedger(n int, quota int32) *Ledger {
	if n <= 0 || uint64(n) > 1<<31 || quota <= 0 { // PeerID is an int32
		panic(fmt.Sprintf("overlay: invalid ledger size n=%d quota=%d", n, quota))
	}
	return newLedger(n, quota, bits.Len(uint(n-1)))
}

// newLedger is NewLedger with the id width of the adjacency entries
// given, so tests can make the index fields a few bits wide.
func newLedger(n int, quota int32, idBits int) *Ledger {
	l := &Ledger{
		fwd:     make([][]placement, n),
		rev:     make([][]hostEntry, n),
		metered: make([]int32, n),
		visible: make([]int32, n),
		online:  make([]bool, n),
		quota:   quota,
		split:   split{bits: uint8(idBits), mask: 1<<idBits - 1},
	}
	for i := range l.online {
		l.online[i] = true
	}
	return l
}

// SetStrict enables O(degree) duplicate checking on Place. Tests use
// it; production runs rely on the maintenance layer's candidate
// filtering instead.
func (l *Ledger) SetStrict(strict bool) { l.strict = strict }

// Reserve preallocates every slot's adjacency capacity from two shared
// slabs of 4-byte entries: ownerCap placements per owner (the archive
// size n) and hostCap entries per host (the quota, plus one per
// unmetered observer) — 25 000 × (256 + 384) entries, 61 MiB, at the
// paper's scale. The simulation engine calls it once at construction so
// steady-state place/remove traffic never grows a slice: the placement
// hot path is allocation-free, and the slabs cost no more than the
// doubling-growth high-water mark they replace. A slot whose list
// outgrows its reservation falls back to the allocator transparently;
// what bounds a list is the index field of its mirror entries, which
// Place enforces whatever was reserved. Each slab's 2 MiB-aligned
// interior is advised onto transparent huge pages before its first
// touch (see adviseHugePages): SetOnline loads one host's reverse list
// from a new place in the slab per flip, and with 4-KiB pages nearly
// every such load also misses the TLB. Must be called before any
// placements are recorded; zero caps skip the corresponding side.
func (l *Ledger) Reserve(ownerCap, hostCap int) {
	if ownerCap > 0 {
		slab := make([]placement, len(l.fwd)*ownerCap)
		adviseHugePages(slab)
		for i := range l.fwd {
			l.fwd[i] = slab[i*ownerCap : i*ownerCap : (i+1)*ownerCap]
		}
	}
	if hostCap > 0 {
		slab := make([]hostEntry, len(l.rev)*hostCap)
		adviseHugePages(slab)
		for i := range l.rev {
			l.rev[i] = slab[i*hostCap : i*hostCap : (i+1)*hostCap]
		}
	}
}

// Watch registers the threshold-crossing watcher: VisibleBelow fires
// when an owner's visible count crosses below visibleThr, AliveBelow
// when its alive count crosses below aliveThr. Crossings are edge-
// triggered: a single operation fires once per decrement that takes a
// count from >=thr to <thr, and CommitFlips fires once per owner whose
// count the whole batch took from >=thr to <thr, net of the batch's
// increments. Increments never fire. A nil watcher disables
// notifications.
func (l *Ledger) Watch(w Watcher, visibleThr, aliveThr int32) {
	l.watcher = w
	l.visThr = visibleThr
	l.aliveThr = aliveThr
}

// noteVisibleDec fires the watcher after owner's visible counter was
// decremented, if the decrement crossed the threshold.
func (l *Ledger) noteVisibleDec(owner PeerID) {
	if l.watcher != nil && l.visible[owner] == l.visThr-1 {
		l.watcher.VisibleBelow(owner)
	}
}

// noteAliveDec fires the watcher after owner's alive count (its forward
// degree) was decremented, if the decrement crossed the threshold.
func (l *Ledger) noteAliveDec(owner PeerID) {
	if l.watcher != nil && int32(len(l.fwd[owner])) == l.aliveThr-1 {
		l.watcher.AliveBelow(owner)
	}
}

// NumPeers returns the number of peer slots.
func (l *Ledger) NumPeers() int { return len(l.fwd) }

// valid is the read side's bounds test. The per-peer queries (Online,
// FreeQuota, Visible, Alive) answer false or zero for an id outside the
// ledger through it instead of through check, whose error construction
// would keep them from inlining into their callers' loops.
func (l *Ledger) valid(id PeerID) bool { return uint(id) < uint(len(l.fwd)) }

func (l *Ledger) check(id PeerID) error {
	if !l.valid(id) {
		return fmt.Errorf("%w: %d", ErrBadPeer, id)
	}
	return nil
}

// Place records that host stores one block for owner. It fails if the
// host's quota is exhausted or owner == host, and with ErrBadPlacement
// if the new entry's index in the owner's or the host's list would not
// fit the field its mirror entry keeps it in (see placement). With
// SetStrict(true) it also rejects duplicate (owner, host) pairs.
func (l *Ledger) Place(owner, host PeerID) error {
	return l.place(owner, host, false)
}

// PlaceUnmetered is Place without quota accounting on the host, used by
// observer peers (the paper's observers "do not consume the quota").
func (l *Ledger) PlaceUnmetered(owner, host PeerID) error {
	return l.place(owner, host, true)
}

func (l *Ledger) place(owner, host PeerID, unmetered bool) error {
	if err := l.check(owner); err != nil {
		return err
	}
	if err := l.check(host); err != nil {
		return err
	}
	if owner == host {
		return ErrSelfStore
	}
	if l.strict && l.HasPlacement(owner, host) {
		return ErrDuplicate
	}
	if !unmetered && l.metered[host] >= l.quota {
		return ErrQuotaFull
	}
	sp := l.split
	fwdIdx, revIdx := len(l.fwd[owner]), len(l.rev[host])
	if fwdIdx > sp.maxOwnerIdx() {
		return fmt.Errorf("%w: owner %d already places %d blocks, all a %d-bit index holds", ErrBadPlacement, owner, fwdIdx, 32-sp.bits)
	}
	if revIdx > sp.maxHostIdx() {
		return fmt.Errorf("%w: host %d already stores %d blocks, all a %d-bit index holds", ErrBadPlacement, host, revIdx, 31-sp.bits)
	}
	l.fwd[owner] = append(l.fwd[owner], sp.placement(host, int32(revIdx), unmetered))
	l.rev[host] = append(l.rev[host], sp.hostEntry(owner, int32(fwdIdx)))
	if !unmetered {
		l.metered[host]++
	}
	if l.online[host] {
		l.visible[owner]++
	}
	return nil
}

// HasPlacement reports whether host already stores a block for owner
// (O(owner degree)).
func (l *Ledger) HasPlacement(owner, host PeerID) bool {
	if l.check(owner) != nil || l.check(host) != nil {
		return false
	}
	sp := l.split
	for _, p := range l.fwd[owner] {
		if sp.host(p) == host {
			return true
		}
	}
	return false
}

// removeFwdAt removes owner's placement at index idx by swap-remove,
// backpatching the reverse entry of the moved placement.
func (l *Ledger) removeFwdAt(owner PeerID, idx int32) {
	list := l.fwd[owner]
	last := int32(len(list) - 1)
	if idx != last {
		sp := l.split
		moved := list[last]
		list[idx] = moved
		mirror := &l.rev[sp.host(moved)][sp.hostIdx(moved)]
		*mirror = sp.withOwnerIdx(*mirror, idx)
	}
	l.fwd[owner] = list[:last]
}

// removeRevAt removes host's entry at index idx by swap-remove,
// backpatching the forward entry of the moved placement.
func (l *Ledger) removeRevAt(host PeerID, idx int32) {
	list := l.rev[host]
	last := int32(len(list) - 1)
	if idx != last {
		sp := l.split
		moved := list[last]
		list[idx] = moved
		mirror := &l.fwd[sp.owner(moved)][sp.ownerIdx(moved)]
		*mirror = sp.withHostIdx(*mirror, idx)
	}
	l.rev[host] = list[:last]
}

// DropPlacementAt removes owner's placement at index idx (as exposed by
// Placements), freeing the host's quota. Used when a repair abandons an
// offline partner.
func (l *Ledger) DropPlacementAt(owner PeerID, idx int) error {
	if err := l.check(owner); err != nil {
		return err
	}
	if idx < 0 || idx >= len(l.fwd[owner]) {
		return fmt.Errorf("%w: owner %d idx %d", ErrBadPlacement, owner, idx)
	}
	p := l.fwd[owner][idx]
	host := l.split.host(p)
	l.removeRevAt(host, l.split.hostIdx(p))
	l.removeFwdAt(owner, int32(idx))
	if !p.unmetered() {
		l.metered[host]--
	}
	l.noteAliveDec(owner)
	if l.online[host] {
		l.visible[owner]--
		l.noteVisibleDec(owner)
	}
	return nil
}

// SetOnline flips a host's session state, updating every affected
// owner's visible counter. Cost: O(blocks hosted). The threshold
// compare is inlined rather than calling noteVisibleDec so the
// no-watcher and no-crossing cases stay branch-only. A caller flipping
// many hosts at once from several goroutines stages them through
// StageOnline instead.
func (l *Ledger) SetOnline(host PeerID, online bool) {
	if l.check(host) != nil {
		return
	}
	if l.online[host] == online {
		return
	}
	l.online[host] = online
	rev := l.rev[host]
	vis := l.visible
	sp := l.split
	if online {
		for _, e := range rev {
			vis[sp.ownerSlot(e)]++
		}
		return
	}
	if l.watcher == nil {
		for _, e := range rev {
			vis[sp.ownerSlot(e)]--
		}
		return
	}
	thr := l.visThr - 1
	for _, e := range rev {
		o := sp.ownerSlot(e)
		vis[o]--
		if vis[o] == thr {
			l.watcher.VisibleBelow(PeerID(o))
		}
	}
}

// Flips is a batch of session flips staged against a ledger that
// nothing mutates meanwhile: the flipped hosts, and the net change the
// flips make to each owner's visible counter. The zero value is an
// empty batch. Goroutines stage into batches of their own at once
// through StageOnline; CommitFlips applies them all.
type Flips struct {
	hosts []PeerID
	delta []int32 // per owner, NumPeers entries once a flip is staged
}

// StageOnline stages SetOnline(host, online) into f instead of applying
// it: +1 (online) or −1 at the owner of every block host stores. It
// only reads the ledger. A host already in the state is not staged,
// as SetOnline leaves it alone; a host is staged at most once over the
// batches committed together. Cost: O(blocks hosted), the staging loop
// of the session-churn hot path.
func (l *Ledger) StageOnline(f *Flips, host PeerID, online bool) {
	if !l.valid(host) || l.online[host] == online {
		return
	}
	if len(f.delta) != len(l.visible) {
		f.delta = make([]int32, len(l.visible))
	}
	f.hosts = append(f.hosts, host)
	rev := l.rev[host]
	delta := f.delta
	sp := l.split
	if online {
		for _, e := range rev {
			delta[sp.ownerSlot(e)]++
		}
		return
	}
	for _, e := range rev {
		delta[sp.ownerSlot(e)]--
	}
}

// CommitFlips applies staged batches as one step and empties them: each
// staged host takes its new session state, the deltas fold into the
// visible counters, and VisibleBelow fires once for each owner whose
// count went from >= the threshold before the commit to below it after.
// The counters end as the batches' flips applied one by one through
// SetOnline would leave them. Cost: O(batches × NumPeers) when any
// flip is staged, nothing otherwise.
func (l *Ledger) CommitFlips(batches []Flips) {
	var acc []int32
	for i := range batches {
		f := &batches[i]
		if len(f.hosts) == 0 {
			continue
		}
		for _, h := range f.hosts {
			l.online[h] = !l.online[h]
		}
		f.hosts = f.hosts[:0]
		if acc == nil {
			acc = f.delta
			continue
		}
		for o, d := range f.delta {
			acc[o] += d
		}
		clear(f.delta)
	}
	if acc == nil {
		return
	}
	vis := l.visible[:len(acc)]
	thr := l.visThr
	w := l.watcher
	for o, d := range acc {
		before := vis[o]
		vis[o] = before + d
		if before >= thr && before+d < thr && w != nil {
			w.VisibleBelow(PeerID(o))
		}
	}
	clear(acc)
}

// Online reports a host's session state.
func (l *Ledger) Online(host PeerID) bool { return l.valid(host) && l.online[host] }

// Screen returns what the maintenance candidate loop asks of every peer
// it draws, as the ledger's own per-host arrays: each host's session
// state and metered block count, and the quota. Host h could be handed
// a metered block right now iff online[h] && metered[h] < quota (Online
// && FreeQuota >= 1). Both slices hold NumPeers entries, are never
// reallocated and change as the ledger does; a caller only reads them.
func (l *Ledger) Screen() (online []bool, metered []int32, quota int32) {
	return l.online, l.metered, l.quota
}

// RemoveHost deletes every block the host stores (its disk vanished):
// each affected owner loses one alive (and possibly visible) block.
// The host keeps its own placements as an owner. Cost: O(blocks hosted).
func (l *Ledger) RemoveHost(host PeerID) {
	if l.check(host) != nil {
		return
	}
	wasOnline := l.online[host]
	sp := l.split
	for _, e := range l.rev[host] {
		owner := sp.owner(e)
		l.removeFwdAt(owner, sp.ownerIdx(e))
		l.noteAliveDec(owner)
		if wasOnline {
			l.visible[owner]--
			l.noteVisibleDec(owner)
		}
	}
	l.rev[host] = l.rev[host][:0]
	l.metered[host] = 0
}

// DropOwner deletes every placement the owner made (its archive is
// gone), freeing quota on all its hosts. Cost: O(owner degree).
func (l *Ledger) DropOwner(owner PeerID) {
	if l.check(owner) != nil {
		return
	}
	crossAlive := l.watcher != nil && l.aliveThr > 0 && int32(len(l.fwd[owner])) >= l.aliveThr
	crossVis := l.watcher != nil && l.visThr > 0 && l.visible[owner] >= l.visThr
	sp := l.split
	for _, p := range l.fwd[owner] {
		host := sp.host(p)
		l.removeRevAt(host, sp.hostIdx(p))
		if !p.unmetered() {
			l.metered[host]--
		}
	}
	l.fwd[owner] = l.fwd[owner][:0]
	l.visible[owner] = 0
	if crossAlive {
		l.watcher.AliveBelow(owner)
	}
	if crossVis {
		l.watcher.VisibleBelow(owner)
	}
}

// RemovePeer handles a peer's death: its hosted blocks disappear and
// its own archive placements are released. The slot can then be reused
// by a fresh peer.
func (l *Ledger) RemovePeer(id PeerID) {
	l.RemoveHost(id)
	l.DropOwner(id)
}

// Alive returns the number of blocks owner has placed on living hosts.
// (Dead hosts' placements are removed eagerly, so this is the owner's
// current degree.)
func (l *Ledger) Alive(owner PeerID) int {
	if !l.valid(owner) {
		return 0
	}
	return len(l.fwd[owner])
}

// Visible returns the number of owner's blocks on hosts that are both
// alive and online - the quantity the repair threshold is compared
// against.
func (l *Ledger) Visible(owner PeerID) int {
	if !l.valid(owner) {
		return 0
	}
	return int(l.visible[owner])
}

// Hosted returns the number of blocks the host currently stores,
// including unmetered observer blocks.
func (l *Ledger) Hosted(host PeerID) int {
	if l.check(host) != nil {
		return 0
	}
	return len(l.rev[host])
}

// MeteredHosted returns the quota-consuming blocks the host stores.
func (l *Ledger) MeteredHosted(host PeerID) int {
	if l.check(host) != nil {
		return 0
	}
	return int(l.metered[host])
}

// FreeQuota returns how many more metered blocks the host can accept.
func (l *Ledger) FreeQuota(host PeerID) int {
	if !l.valid(host) {
		return 0
	}
	return max(int(l.quota-l.metered[host]), 0)
}

// Hosts returns the hosts of owner's placements, appended to buf (reuse
// buf across calls to avoid allocation).
func (l *Ledger) Hosts(owner PeerID, buf []PeerID) []PeerID {
	if l.check(owner) != nil {
		return buf
	}
	sp := l.split
	for _, p := range l.fwd[owner] {
		buf = append(buf, sp.host(p))
	}
	return buf
}

// MarkHosts sets marks[h] = v for the host h of each of owner's
// placements, straight from its adjacency: what a caller stamping a
// per-slot array would otherwise do over a copy Hosts made.
func (l *Ledger) MarkHosts(owner PeerID, marks []uint64, v uint64) {
	if !l.valid(owner) {
		return
	}
	sp := l.split
	for _, p := range l.fwd[owner] {
		marks[sp.host(p)] = v
	}
}

// HostAt returns the host of owner's idx-th placement.
func (l *Ledger) HostAt(owner PeerID, idx int) (PeerID, error) {
	if err := l.check(owner); err != nil {
		return NoPeer, err
	}
	if idx < 0 || idx >= len(l.fwd[owner]) {
		return NoPeer, fmt.Errorf("%w: owner %d idx %d", ErrBadPlacement, owner, idx)
	}
	return l.split.host(l.fwd[owner][idx]), nil
}

// Owners returns the owners of blocks the host stores, appended to buf.
func (l *Ledger) Owners(host PeerID, buf []PeerID) []PeerID {
	if l.check(host) != nil {
		return buf
	}
	sp := l.split
	for _, e := range l.rev[host] {
		buf = append(buf, sp.owner(e))
	}
	return buf
}

// TotalPlacements returns the number of (owner, host) placements in the
// system.
func (l *Ledger) TotalPlacements() int {
	total := 0
	for _, f := range l.fwd {
		total += len(f)
	}
	return total
}

// CheckConsistency exhaustively verifies the cross-indexes and counters
// against a brute-force recount. Tests call it after random operation
// sequences; it is O(total placements).
func (l *Ledger) CheckConsistency() error {
	sp := l.split
	meterRecount := make([]int32, len(l.rev))
	for owner := range l.fwd {
		vis := int32(0)
		for i, p := range l.fwd[owner] {
			host, hostIdx := sp.host(p), sp.hostIdx(p)
			if err := l.check(host); err != nil {
				return fmt.Errorf("owner %d placement %d: %w", owner, i, err)
			}
			if int(hostIdx) >= len(l.rev[host]) {
				return fmt.Errorf("owner %d placement %d: hostIdx %d out of range", owner, i, hostIdx)
			}
			mirror := l.rev[host][hostIdx]
			if sp.owner(mirror) != PeerID(owner) || int(sp.ownerIdx(mirror)) != i {
				return fmt.Errorf("owner %d placement %d: mirror mismatch (%d,%d)", owner, i, sp.owner(mirror), sp.ownerIdx(mirror))
			}
			if l.online[host] {
				vis++
			}
			if !p.unmetered() {
				meterRecount[host]++
			}
		}
		if vis != l.visible[owner] {
			return fmt.Errorf("owner %d: visible counter %d, recount %d", owner, l.visible[owner], vis)
		}
	}
	for host := range l.rev {
		if meterRecount[host] != l.metered[host] {
			return fmt.Errorf("host %d: metered counter %d, recount %d", host, l.metered[host], meterRecount[host])
		}
		for i, e := range l.rev[host] {
			owner, ownerIdx := sp.owner(e), sp.ownerIdx(e)
			if err := l.check(owner); err != nil {
				return fmt.Errorf("host %d entry %d: %w", host, i, err)
			}
			if int(ownerIdx) >= len(l.fwd[owner]) {
				return fmt.Errorf("host %d entry %d: ownerIdx %d out of range", host, i, ownerIdx)
			}
			mirror := l.fwd[owner][ownerIdx]
			if sp.host(mirror) != PeerID(host) || int(sp.hostIdx(mirror)) != i {
				return fmt.Errorf("host %d entry %d: mirror mismatch (%d,%d)", host, i, sp.host(mirror), sp.hostIdx(mirror))
			}
		}
	}
	return nil
}
