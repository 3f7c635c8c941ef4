package node

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/p2pnet"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/storage"
)

// cluster spins up n nodes on one in-memory fabric.
type cluster struct {
	transport *p2pnet.InMemTransport
	dir       *Directory
	nodes     []*Node
}

// fastIdentity generates a small RSA key: fine for tests, far cheaper
// than the production 2048-bit default.
func fastIdentity(t *testing.T) *backup.Identity {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return &backup.Identity{Private: key}
}

// policy resolves a partner-selection spec.
func policy(t *testing.T, spec string) selection.Policy {
	t.Helper()
	pol, err := selection.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func newCluster(t *testing.T, n int, params backup.Params) *cluster {
	t.Helper()
	c := &cluster{
		transport: p2pnet.NewInMemTransport(42),
		dir:       NewDirectory(),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer-%02d", i)
		// Spread ages so the age-based strategy has signal: peer i is
		// i weeks old.
		age := int64(i) * 7 * 24
		nd, err := New(Config{
			Name:            name,
			Age:             age,
			Transport:       c.transport,
			Store:           storage.NewMemStore(0),
			Directory:       c.dir,
			Params:          params,
			RepairThreshold: 6,
			Policy:          policy(t, "random"), // deterministic acceptance for tests
			Identity:        fastIdentity(t),
			Seed:            uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.dir.Register(name, age)
		c.nodes = append(c.nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			nd.Close()
		}
	})
	return c
}

func testFiles(tag string) []backup.FileEntry {
	now := time.Date(2026, 6, 10, 9, 0, 0, 0, time.UTC)
	return []backup.FileEntry{
		{Path: "a/" + tag + ".txt", Mode: 0o644, ModTime: now, Data: []byte("file A for " + tag)},
		{Path: "b.bin", Mode: 0o600, ModTime: now, Data: bytes.Repeat([]byte{7}, 3000)},
	}
}

func entriesEqual(a, b []backup.FileEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

var smallParams = backup.Params{DataBlocks: 4, ParityBlocks: 4}

func TestBackupRestoreHappyPath(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	files := testFiles("happy")
	idx, err := owner.Backup(files, "happy archive")
	if err != nil {
		t.Fatal(err)
	}
	if owner.Archives() != 1 {
		t.Fatal("archive not registered")
	}
	vis, err := owner.VisibleBlocks(idx)
	if err != nil {
		t.Fatal(err)
	}
	if vis != 8 {
		t.Fatalf("visible = %d, want 8", vis)
	}
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, files) {
		t.Fatal("restored files differ")
	}
}

func TestRestoreSurvivesPartnerLoss(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	files := testFiles("loss")
	idx, err := owner.Backup(files, "")
	if err != nil {
		t.Fatal(err)
	}
	// Kill m = 4 partners (the tolerance boundary).
	killed := 0
	for _, nd := range c.nodes[1:] {
		if killed == 4 {
			break
		}
		c.transport.SetPartitioned(nd.Name(), true)
		killed++
	}
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, files) {
		t.Fatal("restored files differ after partner loss")
	}
}

func TestMaintainTickRepairs(t *testing.T) {
	c := newCluster(t, 14, smallParams)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("repair"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Healthy: no trigger.
	rep, err := owner.MaintainTick(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered {
		t.Fatal("healthy archive triggered a repair")
	}
	// Partition three partners: visible 5 < threshold 6 triggers.
	cut := []string{}
	for i, holder := range owner.placements[idx] {
		_ = i
		if len(cut) == 3 {
			break
		}
		alreadyCut := false
		for _, c := range cut {
			if c == holder {
				alreadyCut = true
			}
		}
		if !alreadyCut {
			cut = append(cut, holder)
		}
	}
	for _, name := range cut {
		c.transport.SetPartitioned(name, true)
	}
	rep, err = owner.MaintainTick(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered {
		t.Fatalf("repair not triggered at visible=%d", rep.Visible)
	}
	if rep.Replaced != 3 {
		t.Fatalf("replaced = %d, want 3", rep.Replaced)
	}
	// All blocks visible again without the cut peers.
	vis, err := owner.VisibleBlocks(idx)
	if err != nil {
		t.Fatal(err)
	}
	if vis != 8 {
		t.Fatalf("visible after repair = %d, want 8", vis)
	}
	// And restore still works with the dead partners still dead.
	got, err := owner.Restore(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, testFiles("repair")) {
		t.Fatal("restore after repair differs")
	}
}

func TestAudit(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	idx, err := owner.Backup(testFiles("audit"), "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := owner.Audit(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Challenged != 8 || rep.Passed != 8 || rep.Failed != 0 {
		t.Fatalf("audit = %+v", rep)
	}
	// A partner silently losing the block fails its audit.
	var victim string
	var victimKey storage.BlockID
	for i, holder := range owner.placements[idx] {
		victim = holder
		victimKey = owner.manifests[idx].BlockIDs[i]
		break
	}
	for _, nd := range c.nodes {
		if nd.Name() == victim {
			if err := nd.cfg.Store.Delete(victimKey); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err = owner.Audit(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed < 1 {
		t.Fatalf("lost block not caught: %+v", rep)
	}
}

func TestRecoverFromNetwork(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	files := testFiles("recover")
	if _, err := owner.Backup(files, "first"); err != nil {
		t.Fatal(err)
	}
	more := testFiles("recover2")
	if _, err := owner.Backup(more, "second"); err != nil {
		t.Fatal(err)
	}
	// Total local loss: the user has only the identity and peer names.
	askPeers := c.dir.Names()
	archives, err := RecoverFromNetwork(owner.Name(), owner.Identity(), c.transport, askPeers)
	if err != nil {
		t.Fatal(err)
	}
	if len(archives) != 2 {
		t.Fatalf("recovered %d archives, want 2", len(archives))
	}
	if !entriesEqual(archives[0], files) || !entriesEqual(archives[1], more) {
		t.Fatal("recovered content differs")
	}
	// Wrong identity cannot decrypt.
	wrong := fastIdentity(t)
	if _, err := RecoverFromNetwork(owner.Name(), wrong, c.transport, askPeers); err == nil {
		t.Fatal("foreign identity recovered the archives")
	}
	// Unknown owner finds no master block.
	if _, err := RecoverFromNetwork("stranger", owner.Identity(), c.transport, askPeers); !errors.Is(err, ErrNoMaster) {
		t.Fatalf("err = %v, want ErrNoMaster", err)
	}
}

func TestBackupFailsWithoutPartners(t *testing.T) {
	c := newCluster(t, 3, smallParams) // 2 candidates < 8 blocks
	if _, err := c.nodes[0].Backup(testFiles("few"), ""); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("err = %v, want ErrNotEnough", err)
	}
}

func TestAgeBasedPlacementPrefersElders(t *testing.T) {
	// With the age strategy and plentiful peers, blocks go to the
	// oldest (capped) candidates first.
	c := newCluster(t, 20, smallParams)
	dir := c.dir
	owner, err := New(Config{
		Name:      "owner",
		Age:       0,
		Transport: c.transport,
		Store:     storage.NewMemStore(0),
		Directory: dir,
		Params:    smallParams,
		Policy:    policy(t, "age:L=1680"), // cap at 10 weeks
		Identity:  fastIdentity(t),
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	dir.Register("owner", 0)
	idx, err := owner.Backup(testFiles("elders"), "")
	if err != nil {
		t.Fatal(err)
	}
	// The 8 holders should be drawn from the oldest peers (>= 10 weeks
	// of age is capped; peers 10..19 all tie at the cap).
	youngest := int64(1 << 62)
	for _, holder := range owner.placements[idx] {
		view, _ := dir.View(holder)
		if view.Observed.Age < youngest {
			youngest = view.Observed.Age
		}
	}
	// Acceptance is probabilistic (elders decline newborns often), so
	// we only require that placement skews old: the youngest holder is
	// at least peer-04's age.
	if youngest < 4*7*24 {
		t.Fatalf("youngest holder age = %d rounds; placement did not skew old", youngest)
	}
}

func TestValidationErrors(t *testing.T) {
	tr := p2pnet.NewInMemTransport(1)
	dir := NewDirectory()
	st := storage.NewMemStore(0)
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Name: "x", Transport: tr, Store: st, Directory: dir,
		Params: backup.Params{DataBlocks: -1, ParityBlocks: 1}}); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := New(Config{Name: "x", Transport: tr, Store: st, Directory: dir,
		RepairThreshold: 9999}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	// Restore of unknown archive.
	nd, err := New(Config{Name: "y", Transport: tr, Store: st, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if _, err := nd.Restore(0); !errors.Is(err, ErrNoArchive) {
		t.Fatal("restore of missing archive accepted")
	}
	if _, err := nd.MaintainTick(3); !errors.Is(err, ErrNoArchive) {
		t.Fatal("tick on missing archive accepted")
	}
	if _, err := nd.Audit(1); !errors.Is(err, ErrNoArchive) {
		t.Fatal("audit on missing archive accepted")
	}
	if _, err := nd.VisibleBlocks(-1); !errors.Is(err, ErrNoArchive) {
		t.Fatal("visible on missing archive accepted")
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	d.Register("a", 1)
	d.Register("b", 2)
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if view, ok := d.View("a"); !ok || view.Observed.Age != 1 {
		t.Fatal("View wrong")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	d.Remove("a")
	if _, ok := d.View("a"); ok {
		t.Fatal("removed peer still present")
	}
}

// A restore needs k blocks and asks for no more: the data blocks when
// they can be had, the next in line for each that cannot.
func TestRestoreFetchesKBlocks(t *testing.T) {
	c := newCluster(t, 12, smallParams)
	owner := c.nodes[0]
	files := testFiles("k-blocks")
	idx, err := owner.Backup(files, "")
	if err != nil {
		t.Fatal(err)
	}
	restoreCalls := func() (int64, error) {
		before, _ := c.transport.Stats()
		got, err := owner.Restore(idx)
		after, _ := c.transport.Stats()
		if err == nil && !entriesEqual(got, files) {
			t.Fatal("restored files differ")
		}
		return after - before, err
	}
	if calls, err := restoreCalls(); err != nil || calls != 4 {
		t.Fatalf("intact archive: %d calls, %v; want the 4 data blocks", calls, err)
	}

	// Data block 1 rots on its holder: one more call fetches parity block 4.
	holder := owner.placements[idx][1]
	for _, nd := range c.nodes {
		if nd.Name() == holder {
			if err := nd.cfg.Store.(*storage.MemStore).Corrupt(owner.manifests[idx].BlockIDs[1], 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if calls, err := restoreCalls(); err != nil || calls != 5 {
		t.Fatalf("one corrupt data block: %d calls, %v; want 5", calls, err)
	}

	// Four more holders gone leaves k-1 good blocks: every block is
	// asked for and the restore fails.
	for _, i := range []int{0, 5, 6, 7} {
		c.transport.SetPartitioned(owner.placements[idx][i], true)
	}
	if calls, err := restoreCalls(); !errors.Is(err, ErrRestore) || calls != 8 {
		t.Fatalf("k-1 good blocks: %d calls, %v; want 8 and ErrRestore", calls, err)
	}
}
