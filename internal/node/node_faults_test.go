package node

import (
	"net"
	"testing"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/p2pnet"
	"p2pbackup/internal/storage"
)

// TestBackupOnFlakyNetwork: a lossy fabric (20% call drops) must not
// prevent a backup; placeBlock walks down the ranking past failures.
func TestBackupOnFlakyNetwork(t *testing.T) {
	c := newCluster(t, 16, smallParams)
	c.transport.SetDropRate(0.2)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("flaky"), "")
	if err != nil {
		t.Fatalf("backup on flaky network: %v", err)
	}
	c.transport.SetDropRate(0)
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, testFiles("flaky")) {
		t.Fatal("flaky-network backup corrupted data")
	}
}

// TestRestoreToleratesDrops: with mild drops, restore still gathers k
// of n blocks (the erasure margin doubles as a retry margin).
func TestRestoreToleratesDrops(t *testing.T) {
	c := newCluster(t, 16, smallParams)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("drops"), "")
	if err != nil {
		t.Fatal(err)
	}
	c.transport.SetDropRate(0.25)
	// 8 blocks, k=4: expected reachable 6 > 4. A single attempt can
	// still fail; allow a few retries as a client would.
	var restoreErr error
	for attempt := 0; attempt < 5; attempt++ {
		var got []backup.FileEntry
		got, restoreErr = owner.Restore(idx)
		if restoreErr == nil {
			if !entriesEqual(got, testFiles("drops")) {
				t.Fatal("drop-restore corrupted data")
			}
			return
		}
	}
	t.Fatalf("restore failed across retries: %v", restoreErr)
}

// TestHostQuotaRefusesStores: a host at quota declines and the owner
// routes around it.
func TestHostQuotaRefusesStores(t *testing.T) {
	transport := p2pnet.NewInMemTransport(5)
	dir := NewDirectory()
	// 9 peers with roomy stores plus one with a 1-byte quota.
	mk := func(name string, quota int64) *Node {
		nd, err := New(Config{
			Name:      name,
			Transport: transport,
			Store:     storage.NewMemStore(quota),
			Directory: dir,
			Params:    smallParams,
			Policy:    policy(t, "random"),
			Identity:  fastIdentity(t),
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		dir.Register(name, 0)
		return nd
	}
	owner := mk("owner", 0)
	mk("cramped", 1)
	for i := 0; i < 8; i++ {
		mk(string(rune('a'+i)), 0)
	}
	idx, err := owner.Backup(testFiles("quota"), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, holder := range owner.placements[idx] {
		if holder == "cramped" {
			t.Fatal("block placed on a full host")
		}
	}
}

// TestAuditCatchesCorruption: a holder whose disk corrupts a block
// fails its proof-of-storage audit even though it still "has" the
// block.
func TestAuditCatchesCorruption(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("corrupt"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored block behind a holder's back.
	var victim *Node
	var key storage.BlockID
	for i, holder := range owner.placements[idx] {
		for _, nd := range c.nodes {
			if nd.Name() == holder {
				victim = nd
				key = owner.manifests[idx].BlockIDs[i]
			}
		}
		if victim != nil {
			break
		}
	}
	ms := victim.cfg.Store.(*storage.MemStore)
	if err := ms.Corrupt(key, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := owner.Audit(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed < 1 {
		t.Fatalf("corrupted block passed audits: %+v", rep)
	}
	// And the corrupted block is not served (integrity check on Get),
	// so restore falls back to the parity margin.
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, testFiles("corrupt")) {
		t.Fatal("restore used corrupted data")
	}
}

// TestMaintainTickStallsBelowK: with fewer than k blocks reachable the
// tick reports an error instead of fabricating data.
func TestMaintainTickStallsBelowK(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("stall"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Partition every holder: nothing reachable.
	for _, holder := range owner.placements[idx] {
		c.transport.SetPartitioned(holder, true)
	}
	if _, err := owner.MaintainTick(idx); err == nil {
		t.Fatal("tick succeeded with zero reachable blocks")
	}
	// Partners return: the next tick heals (visible dropped counters
	// reset naturally).
	for _, holder := range owner.placements[idx] {
		c.transport.SetPartitioned(holder, false)
	}
	rep, err := owner.MaintainTick(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered {
		t.Fatal("healthy archive triggered after heal")
	}
}

// TestTCPClusterEndToEnd runs a small real-socket cluster: a node's
// transport name is its TCP address, so peers exchange blocks over
// real loopback connections.
func TestTCPClusterEndToEnd(t *testing.T) {
	tr := p2pnet.NewTCPTransport()
	dir := NewDirectory()
	params := backup.Params{DataBlocks: 2, ParityBlocks: 2}
	var nodes []*Node
	for i := 0; i < 6; i++ {
		// Reserve an ephemeral port, release it, and have the node's
		// Serve re-bind it immediately (the reuse window is negligible
		// on loopback in a test).
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		name := ln.Addr().String()
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			Name:      name,
			Transport: tr,
			Store:     storage.NewMemStore(0),
			Directory: dir,
			Params:    params,
			Policy:    policy(t, "random"),
			Identity:  fastIdentity(t),
			Seed:      uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		dir.Register(name, 0)
		nodes = append(nodes, nd)
	}
	owner := nodes[0]
	idx, err := owner.Backup(testFiles("tcp"), "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, testFiles("tcp")) {
		t.Fatal("TCP restore mismatch")
	}
	// Kill one holder's socket: restore still works (2 parity margin).
	for _, holder := range owner.placements[idx] {
		for _, nd := range nodes {
			if nd.Name() == holder {
				nd.Close()
			}
		}
		break
	}
	if _, err := owner.Restore(idx); err != nil {
		t.Fatalf("restore after socket loss: %v", err)
	}
}
