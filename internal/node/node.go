// Package node assembles a complete backup peer out of the substrate
// packages: it serves blocks for partners (internal/storage), speaks
// the wire protocol (internal/p2pnet), encodes and restores archives
// (internal/backup), picks partners with the paper's age-based rule
// (internal/selection), and runs the monitoring/repair loop
// (section 2.2.3) against live peers.
//
// A Node plays both roles of the exchange economy: owner of its own
// archives and host for other peers' blocks. Backup, Restore,
// MaintainTick and Audit are owner-side operations and must be called
// from one goroutine; the serving side is concurrency-safe and runs on
// the transport's goroutines.
package node

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/erasure"
	"p2pbackup/internal/p2pnet"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/storage"
)

// Directory is the membership view a node selects partners from. The
// paper assumes a monitoring service that reports peer ages; here the
// directory plays that role: it records one observed age per peer.
type Directory struct {
	mu   sync.RWMutex
	ages map[string]int64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{ages: make(map[string]int64)}
}

// Register announces a peer with its observed age in rounds (or
// updates the age of a known one).
func (d *Directory) Register(name string, age int64) {
	d.mu.Lock()
	d.ages[name] = age
	d.mu.Unlock()
}

// Remove withdraws a peer.
func (d *Directory) Remove(name string) {
	d.mu.Lock()
	delete(d.ages, name)
	d.mu.Unlock()
}

// View returns what the directory knows about a peer: its observed age,
// with no monitored history and no oracle knowledge.
func (d *Directory) View(name string) (selection.View, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	age, ok := d.ages[name]
	return selection.View{Observed: selection.Observed{Age: age}}, ok
}

// Names lists registered peers, sorted for determinism.
func (d *Directory) Names() []string {
	d.mu.RLock()
	out := make([]string, 0, len(d.ages))
	for n := range d.ages {
		out = append(out, n)
	}
	d.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the directory size.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ages)
}

// Config assembles a node.
type Config struct {
	// Name is the node's stable identity on the transport.
	Name string
	// Age is the node's own age (rounds) as the acceptance function
	// sees it.
	Age int64
	// Transport connects to other peers.
	Transport p2pnet.Transport
	// Store holds blocks for OTHER peers (host role).
	Store storage.Store
	// Directory lists candidate partners.
	Directory *Directory
	// Params is the archive code shape (default: the paper's 128/128).
	Params backup.Params
	// RepairThreshold is k' on visible blocks (default: scaled 148/256).
	RepairThreshold int
	// Policy ranks and accepts partners (default: the paper's age
	// policy with its 90-day horizon in hours).
	Policy selection.Policy
	// ChallengesPerBlock precomputed audits per placed block (default 16).
	ChallengesPerBlock int
	// Identity is the owner key pair; generated (RSA-2048) when nil.
	// Tests inject smaller keys to stay fast.
	Identity *backup.Identity
	// Seed drives placement randomness.
	Seed uint64
}

// Node is one backup peer.
type Node struct {
	cfg      Config
	identity *backup.Identity
	rmu      sync.Mutex // guards r: the handler runs on transport goroutines
	r        *rng.Rand

	// Owner-side state (single goroutine).
	manifests  []*backup.Manifest
	placements []map[int]string // archive -> block index -> holder
	auditor    *storage.Auditor

	// Host-side state (concurrent).
	mastersMu sync.Mutex
	masters   map[string][]byte

	masterSeq int64
	closer    io.Closer
}

// Node errors.
var (
	ErrNoArchive = errors.New("node: no such archive")
	ErrNotEnough = errors.New("node: not enough partners available")
	ErrRestore   = errors.New("node: restore failed")
	ErrNoMaster  = errors.New("node: master block not found on any partner")
)

// New starts a node: generates its identity and begins serving.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" || cfg.Transport == nil || cfg.Store == nil || cfg.Directory == nil {
		return nil, errors.New("node: Name, Transport, Store and Directory are required")
	}
	if cfg.Params == (backup.Params{}) {
		cfg.Params = backup.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.RepairThreshold == 0 {
		// The paper's 148/256 ratio, scaled to the configured shape.
		cfg.RepairThreshold = cfg.Params.DataBlocks + (cfg.Params.Total()-cfg.Params.DataBlocks)*20/128
		if cfg.RepairThreshold <= cfg.Params.DataBlocks {
			cfg.RepairThreshold = cfg.Params.DataBlocks + 1
		}
	}
	if cfg.RepairThreshold < cfg.Params.DataBlocks || cfg.RepairThreshold > cfg.Params.Total() {
		return nil, fmt.Errorf("node: threshold %d outside [k=%d, n=%d]",
			cfg.RepairThreshold, cfg.Params.DataBlocks, cfg.Params.Total())
	}
	if cfg.Policy == nil {
		var err error
		if cfg.Policy, err = selection.ParseWith("age", selection.Defaults{Horizon: 90 * 24}); err != nil {
			return nil, err
		}
	}
	if cfg.ChallengesPerBlock <= 0 {
		cfg.ChallengesPerBlock = 16
	}
	identity := cfg.Identity
	if identity == nil {
		var err error
		identity, err = backup.NewIdentity()
		if err != nil {
			return nil, err
		}
	}
	n := &Node{
		cfg:      cfg,
		identity: identity,
		r:        rng.New(cfg.Seed ^ 0x9E3779B97F4A7C15),
		auditor:  storage.NewAuditor(),
		masters:  make(map[string][]byte),
	}
	closer, err := cfg.Transport.Serve(cfg.Name, n.handle)
	if err != nil {
		return nil, err
	}
	n.closer = closer
	return n, nil
}

// Name returns the node's transport name.
func (n *Node) Name() string { return n.cfg.Name }

// Identity returns the node's key pair (the user must keep the private
// key to restore after total loss).
func (n *Node) Identity() *backup.Identity { return n.identity }

// Archives returns the number of owned archives.
func (n *Node) Archives() int { return len(n.manifests) }

// Close stops serving.
func (n *Node) Close() error {
	if n.closer == nil {
		return nil
	}
	return n.closer.Close()
}

// handle serves the host role.
func (n *Node) handle(from string, req p2pnet.Message) p2pnet.Message {
	switch v := req.(type) {
	case p2pnet.Ping:
		return p2pnet.Pong{From: n.cfg.Name}
	case p2pnet.StoreBlock:
		// The acceptance function gives every requester a chance
		// proportional to its age standing (never zero).
		if requester, ok := n.cfg.Directory.View(from); ok {
			self := selection.View{Observed: selection.Observed{Age: n.cfg.Age}}
			n.rmu.Lock()
			accept := n.r.Bool(n.cfg.Policy.AcceptProb(selection.Context{}, self, requester))
			n.rmu.Unlock()
			if !accept {
				return p2pnet.StoreResult{OK: false, Reason: "partnership declined"}
			}
		}
		if _, err := n.cfg.Store.Put(v.Data); err != nil {
			return p2pnet.StoreResult{OK: false, Reason: err.Error()}
		}
		return p2pnet.StoreResult{OK: true}
	case p2pnet.GetBlock:
		data, err := n.cfg.Store.Get(v.Key)
		if err != nil {
			return p2pnet.BlockData{Key: v.Key, Found: false}
		}
		return p2pnet.BlockData{Key: v.Key, Found: true, Data: data}
	case p2pnet.Challenge:
		data, err := n.cfg.Store.Get(v.Key)
		if err != nil {
			return p2pnet.ChallengeResponse{Key: v.Key, OK: false}
		}
		return p2pnet.ChallengeResponse{Key: v.Key, OK: true, MAC: storage.Respond(data, v.Nonce)}
	case p2pnet.StoreMaster:
		n.mastersMu.Lock()
		n.masters[v.Owner] = append([]byte(nil), v.Data...)
		n.mastersMu.Unlock()
		return p2pnet.StoreResult{OK: true}
	case p2pnet.GetMaster:
		n.mastersMu.Lock()
		data, ok := n.masters[v.Owner]
		n.mastersMu.Unlock()
		if !ok {
			return p2pnet.MasterData{Owner: v.Owner, Found: false}
		}
		return p2pnet.MasterData{Owner: v.Owner, Found: true, Data: data}
	default:
		return p2pnet.ErrorMsg{Text: fmt.Sprintf("unexpected message %v", req.Type())}
	}
}

// rankedCandidates returns directory peers (excluding self and given
// exclusions) ordered by the policy score, ties shuffled.
func (n *Node) rankedCandidates(exclude map[string]bool) []string {
	names := n.cfg.Directory.Names()
	type cand struct {
		name  string
		score float64
	}
	var cands []cand
	for _, name := range names {
		if name == n.cfg.Name || exclude[name] {
			continue
		}
		view, _ := n.cfg.Directory.View(name)
		cands = append(cands, cand{name: name, score: n.cfg.Policy.Score(selection.Context{}, view)})
	}
	n.rmu.Lock()
	n.r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	n.rmu.Unlock()
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// placeBlock stores one block on the best willing partner not yet in
// exclude, retrying down the ranking. It returns the partner name.
func (n *Node) placeBlock(data []byte, exclude map[string]bool) (string, error) {
	for _, name := range n.rankedCandidates(exclude) {
		resp, err := n.cfg.Transport.Call(name, p2pnet.StoreBlock{
			From: n.cfg.Name,
			Key:  storage.IDOf(data),
			Data: data,
		})
		if err != nil {
			continue // unreachable; try next
		}
		if sr, ok := resp.(p2pnet.StoreResult); ok && sr.OK {
			return name, nil
		}
	}
	return "", ErrNotEnough
}

// Backup encodes the entries into a new archive and distributes its
// blocks, one per partner. It returns the archive index.
func (n *Node) Backup(entries []backup.FileEntry, description string) (int, error) {
	plaintext, err := backup.PackFiles(entries)
	if err != nil {
		return 0, err
	}
	blocks, manifest, err := backup.EncodeArchive(n.cfg.Params, n.identity, plaintext, description)
	if err != nil {
		return 0, err
	}
	placement := make(map[int]string, len(blocks))
	exclude := make(map[string]bool)
	for i, block := range blocks {
		holder, err := n.placeBlock(block, exclude)
		if err != nil {
			return 0, fmt.Errorf("node: placing block %d/%d: %w", i, len(blocks), err)
		}
		placement[i] = holder
		exclude[holder] = true // one block per partner per archive
		cs, err := storage.GenerateChallenges(block, n.cfg.ChallengesPerBlock)
		if err != nil {
			return 0, err
		}
		n.auditor.Add(manifest.BlockIDs[i], cs)
	}
	n.manifests = append(n.manifests, manifest)
	n.placements = append(n.placements, placement)
	if err := n.publishMaster(); err != nil {
		return 0, err
	}
	return len(n.manifests) - 1, nil
}

// publishMaster replicates the (plaintext-metadata) master block to
// every current partner, with a sequence number so readers can pick the
// freshest replica. Confidential content stays protected: session keys
// inside manifests are wrapped under the owner's public key.
func (n *Node) publishMaster() error {
	n.masterSeq++
	mb := &backup.MasterBlock{Seq: n.masterSeq, Manifests: n.manifests, Partners: map[int][]string{}}
	holders := map[string]bool{}
	for idx, placement := range n.placements {
		seen := map[string]bool{}
		for _, holder := range placement {
			holders[holder] = true
			if !seen[holder] {
				mb.Partners[idx] = append(mb.Partners[idx], holder)
				seen[holder] = true
			}
		}
		sort.Strings(mb.Partners[idx])
	}
	raw, err := backup.MarshalMasterBlock(mb)
	if err != nil {
		return err
	}
	for holder := range holders {
		// Best effort: unreachable partners get the next publication.
		_, _ = n.cfg.Transport.Call(holder, p2pnet.StoreMaster{
			From: n.cfg.Name, Owner: n.cfg.Name, Data: raw,
		})
	}
	return nil
}

// getBlock asks holder for a block and returns it if it arrives and
// hashes to its id, else nil.
func getBlock(t p2pnet.Transport, from, holder string, id storage.BlockID) []byte {
	resp, err := t.Call(holder, p2pnet.GetBlock{From: from, Key: id})
	if err != nil {
		return nil
	}
	bd, ok := resp.(p2pnet.BlockData)
	if !ok || !bd.Found || storage.IDOf(bd.Data) != id {
		return nil
	}
	return bd.Data
}

// fetchBlocks retrieves up to limit blocks of an archive from their
// holders, data blocks first; missing or corrupt blocks come back nil.
func (n *Node) fetchBlocks(idx, limit int) ([][]byte, int) {
	return n.manifests[idx].Gather(limit, func(i int, id storage.BlockID) []byte {
		holder, placed := n.placements[idx][i]
		if !placed {
			return nil
		}
		return getBlock(n.cfg.Transport, n.cfg.Name, holder, id)
	})
}

// Restore fetches and decodes an owned archive back into file entries.
func (n *Node) Restore(idx int) ([]backup.FileEntry, error) {
	if idx < 0 || idx >= len(n.manifests) {
		return nil, ErrNoArchive
	}
	// Any k blocks restore the archive; MaintainTick, which re-places
	// every missing block, is the caller that needs them all.
	blocks, got := n.fetchBlocks(idx, n.manifests[idx].Params.DataBlocks)
	if got < n.manifests[idx].Params.DataBlocks {
		return nil, fmt.Errorf("%w: only %d of %d blocks reachable",
			ErrRestore, got, n.manifests[idx].Params.Total())
	}
	plaintext, err := backup.DecodeArchive(n.manifests[idx], n.identity, blocks)
	if err != nil {
		return nil, err
	}
	return backup.UnpackFiles(plaintext)
}

// VisibleBlocks pings each holder of the archive and counts blocks on
// responsive partners (the quantity the repair threshold watches).
func (n *Node) VisibleBlocks(idx int) (int, error) {
	if idx < 0 || idx >= len(n.manifests) {
		return 0, ErrNoArchive
	}
	visible := 0
	reachable := map[string]bool{}
	for _, holder := range n.placements[idx] {
		ok, seen := reachable[holder]
		if !seen {
			_, err := n.cfg.Transport.Call(holder, p2pnet.Ping{From: n.cfg.Name})
			ok = err == nil
			reachable[holder] = ok
		}
		if ok {
			visible++
		}
	}
	return visible, nil
}

// RepairReport summarises one maintenance tick for one archive.
type RepairReport struct {
	Archive   int
	Visible   int
	Triggered bool
	Replaced  int
}

// MaintainTick runs one monitoring round over an archive: if visible
// blocks are below the threshold, unreachable placements are dropped,
// the archive is reconstructed from any k reachable blocks, and the
// missing blocks are re-placed on new partners (the paper's repair).
func (n *Node) MaintainTick(idx int) (RepairReport, error) {
	if idx < 0 || idx >= len(n.manifests) {
		return RepairReport{}, ErrNoArchive
	}
	m := n.manifests[idx]
	rep := RepairReport{Archive: idx}
	visible, err := n.VisibleBlocks(idx)
	if err != nil {
		return rep, err
	}
	rep.Visible = visible
	if visible >= n.cfg.RepairThreshold {
		return rep, nil
	}
	rep.Triggered = true

	blocks, got := n.fetchBlocks(idx, m.Params.Total())
	if got < m.Params.DataBlocks {
		return rep, fmt.Errorf("%w: repair needs %d blocks, reached %d",
			ErrRestore, m.Params.DataBlocks, got)
	}
	// Re-encode everything (worst-case assumption, as in the paper).
	full := make([][]byte, len(blocks))
	copy(full, blocks)
	enc, err := erasure.New(m.Params.DataBlocks, m.Params.ParityBlocks)
	if err != nil {
		return rep, err
	}
	if err := enc.Reconstruct(full); err != nil {
		return rep, err
	}
	// Drop unreachable placements, keep reachable ones.
	exclude := make(map[string]bool)
	newPlacement := make(map[int]string)
	for i, holder := range n.placements[idx] {
		if blocks[i] != nil {
			newPlacement[i] = holder
			exclude[holder] = true
		} else {
			n.auditor.Forget(m.BlockIDs[i])
		}
	}
	// Re-place missing blocks on fresh partners.
	for i := range full {
		if _, ok := newPlacement[i]; ok {
			continue
		}
		holder, err := n.placeBlock(full[i], exclude)
		if err != nil {
			// Partial repair: keep what we placed; next tick continues.
			break
		}
		newPlacement[i] = holder
		exclude[holder] = true
		cs, err := storage.GenerateChallenges(full[i], n.cfg.ChallengesPerBlock)
		if err != nil {
			return rep, err
		}
		n.auditor.Add(m.BlockIDs[i], cs)
		rep.Replaced++
	}
	n.placements[idx] = newPlacement
	if err := n.publishMaster(); err != nil {
		return rep, err
	}
	return rep, nil
}

// AuditReport summarises a proof-of-storage sweep.
type AuditReport struct {
	Challenged int
	Passed     int
	Failed     int // includes unreachable holders
}

// Audit challenges every holder of an archive once (consuming one
// precomputed challenge per block that still has any).
func (n *Node) Audit(idx int) (AuditReport, error) {
	if idx < 0 || idx >= len(n.manifests) {
		return AuditReport{}, ErrNoArchive
	}
	m := n.manifests[idx]
	var rep AuditReport
	for i, holder := range n.placements[idx] {
		ch, err := n.auditor.Next(m.BlockIDs[i])
		if err != nil {
			continue // challenge supply exhausted for this block
		}
		rep.Challenged++
		resp, err := n.cfg.Transport.Call(holder, p2pnet.Challenge{
			From: n.cfg.Name, Key: m.BlockIDs[i], Nonce: ch.Nonce,
		})
		if err != nil {
			rep.Failed++
			continue
		}
		cr, ok := resp.(p2pnet.ChallengeResponse)
		if !ok || !cr.OK || !ch.Verify(cr.MAC) {
			rep.Failed++
			continue
		}
		rep.Passed++
	}
	return rep, nil
}

// RecoverFromNetwork rebuilds an owner's archives on a fresh machine:
// given only the identity (private key) and a few peers to ask, it
// retrieves the master block, then fetches and decodes every archive.
// This is the paper's restoration task after total local loss.
func RecoverFromNetwork(name string, identity *backup.Identity, transport p2pnet.Transport, askPeers []string) ([][]backup.FileEntry, error) {
	// Collect every reachable replica and keep the freshest (replicas
	// written before the last publication are stale).
	var mb *backup.MasterBlock
	for _, peer := range askPeers {
		resp, err := transport.Call(peer, p2pnet.GetMaster{From: name, Owner: name})
		if err != nil {
			continue
		}
		md, ok := resp.(p2pnet.MasterData)
		if !ok || !md.Found {
			continue
		}
		parsed, err := backup.UnmarshalMasterBlock(md.Data)
		if err != nil {
			continue
		}
		if mb == nil || parsed.Seq > mb.Seq {
			mb = parsed
		}
	}
	if mb == nil {
		return nil, ErrNoMaster
	}
	var out [][]backup.FileEntry
	for idx, m := range mb.Manifests {
		blocks, got := m.Gather(m.Params.DataBlocks, func(_ int, id storage.BlockID) []byte {
			for _, holder := range mb.Partners[idx] {
				if data := getBlock(transport, name, holder, id); data != nil {
					return data
				}
			}
			return nil
		})
		if got < m.Params.DataBlocks {
			return nil, fmt.Errorf("%w: archive %d: %d of %d blocks", ErrRestore, idx, got, m.Params.Total())
		}
		plaintext, err := backup.DecodeArchive(m, identity, blocks)
		if err != nil {
			return nil, err
		}
		files, err := backup.UnpackFiles(plaintext)
		if err != nil {
			return nil, err
		}
		out = append(out, files)
	}
	return out, nil
}
