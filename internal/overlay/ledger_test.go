package overlay

import (
	"errors"
	"testing"
	"unsafe"

	"p2pbackup/internal/rng"
)

func mustPlace(t *testing.T, l *Ledger, owner, host PeerID) {
	t.Helper()
	if err := l.Place(owner, host); err != nil {
		t.Fatalf("Place(%d, %d): %v", owner, host, err)
	}
}

func TestPlaceBasics(t *testing.T) {
	l := NewLedger(4, 2)
	l.SetStrict(true)
	mustPlace(t, l, 0, 1)
	mustPlace(t, l, 0, 2)
	if l.Alive(0) != 2 || l.Visible(0) != 2 {
		t.Fatalf("alive/visible = %d/%d, want 2/2", l.Alive(0), l.Visible(0))
	}
	if l.Hosted(1) != 1 || l.Hosted(2) != 1 {
		t.Fatal("host counts wrong")
	}
	if !l.HasPlacement(0, 1) || l.HasPlacement(0, 3) {
		t.Fatal("HasPlacement wrong")
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceErrors(t *testing.T) {
	l := NewLedger(3, 1)
	l.SetStrict(true)
	if err := l.Place(0, 0); !errors.Is(err, ErrSelfStore) {
		t.Fatalf("self store: %v", err)
	}
	if err := l.Place(-1, 0); !errors.Is(err, ErrBadPeer) {
		t.Fatalf("bad owner: %v", err)
	}
	if err := l.Place(0, 5); !errors.Is(err, ErrBadPeer) {
		t.Fatalf("bad host: %v", err)
	}
	mustPlace(t, l, 0, 1)
	if err := l.Place(0, 1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := l.Place(2, 1); !errors.Is(err, ErrQuotaFull) {
		t.Fatalf("quota: %v", err)
	}
	if l.FreeQuota(1) != 0 || l.FreeQuota(2) != 1 {
		t.Fatal("FreeQuota wrong")
	}
}

func TestVisibilityTracking(t *testing.T) {
	l := NewLedger(5, 10)
	mustPlace(t, l, 0, 1)
	mustPlace(t, l, 0, 2)
	mustPlace(t, l, 0, 3)
	l.SetOnline(2, false)
	if l.Visible(0) != 2 || l.Alive(0) != 3 {
		t.Fatalf("after offline: visible/alive = %d/%d, want 2/3", l.Visible(0), l.Alive(0))
	}
	l.SetOnline(2, false) // idempotent
	if l.Visible(0) != 2 {
		t.Fatal("double offline must be a no-op")
	}
	l.SetOnline(2, true)
	if l.Visible(0) != 3 {
		t.Fatal("back online must restore visibility")
	}
	if !l.Online(1) {
		t.Fatal("default state must be online")
	}
	// Placement on an offline host is alive but not visible.
	l.SetOnline(4, false)
	mustPlace(t, l, 0, 4)
	if l.Visible(0) != 3 || l.Alive(0) != 4 {
		t.Fatalf("offline placement: visible/alive = %d/%d, want 3/4", l.Visible(0), l.Alive(0))
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveHost(t *testing.T) {
	l := NewLedger(4, 10)
	mustPlace(t, l, 0, 2)
	mustPlace(t, l, 1, 2)
	mustPlace(t, l, 0, 3)
	l.RemoveHost(2)
	if l.Alive(0) != 1 || l.Alive(1) != 0 {
		t.Fatalf("alive after host death = %d/%d, want 1/0", l.Alive(0), l.Alive(1))
	}
	if l.Visible(0) != 1 || l.Visible(1) != 0 {
		t.Fatal("visible after host death wrong")
	}
	if l.Hosted(2) != 0 {
		t.Fatal("dead host still hosts blocks")
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Offline host death must not double-decrement visible.
	mustPlace(t, l, 0, 1)
	l.SetOnline(1, false)
	vis := l.Visible(0)
	l.RemoveHost(1)
	if l.Visible(0) != vis {
		t.Fatalf("visible changed by offline host death: %d -> %d", vis, l.Visible(0))
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDropOwner(t *testing.T) {
	l := NewLedger(4, 10)
	mustPlace(t, l, 0, 1)
	mustPlace(t, l, 0, 2)
	mustPlace(t, l, 3, 1)
	l.DropOwner(0)
	if l.Alive(0) != 0 || l.Visible(0) != 0 {
		t.Fatal("owner still has placements")
	}
	if l.Hosted(1) != 1 {
		t.Fatalf("host 1 stores %d, want 1 (peer 3's block)", l.Hosted(1))
	}
	if l.Hosted(2) != 0 {
		t.Fatal("host 2 quota not freed")
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRemovePeer(t *testing.T) {
	l := NewLedger(4, 10)
	mustPlace(t, l, 0, 1) // 0 owns a block on 1
	mustPlace(t, l, 1, 0) // 1 owns a block on 0
	mustPlace(t, l, 2, 0)
	l.RemovePeer(0)
	if l.Alive(0) != 0 || l.Hosted(0) != 0 {
		t.Fatal("dead peer still participates")
	}
	if l.Alive(1) != 0 || l.Alive(2) != 0 {
		t.Fatal("owners keeping blocks on dead host")
	}
	if l.Hosted(1) != 0 {
		t.Fatal("dead owner's block still hosted")
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDropPlacementAt(t *testing.T) {
	l := NewLedger(5, 10)
	for _, h := range []PeerID{1, 2, 3, 4} {
		mustPlace(t, l, 0, h)
	}
	// Find and drop host 2's placement.
	idx := -1
	for i := 0; i < l.Alive(0); i++ {
		h, err := l.HostAt(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if h == 2 {
			idx = i
		}
	}
	if err := l.DropPlacementAt(0, idx); err != nil {
		t.Fatal(err)
	}
	if l.HasPlacement(0, 2) {
		t.Fatal("placement still present")
	}
	if l.Alive(0) != 3 || l.Visible(0) != 3 || l.Hosted(2) != 0 {
		t.Fatal("counters wrong after drop")
	}
	if err := l.DropPlacementAt(0, 99); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("bad index: %v", err)
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmeteredPlacement(t *testing.T) {
	l := NewLedger(3, 1)
	l.SetStrict(true)
	mustPlace(t, l, 0, 2) // consumes the only quota slot
	if err := l.PlaceUnmetered(1, 2); err != nil {
		t.Fatalf("unmetered placement must bypass quota: %v", err)
	}
	if l.Hosted(2) != 2 || l.MeteredHosted(2) != 1 {
		t.Fatalf("hosted/metered = %d/%d, want 2/1", l.Hosted(2), l.MeteredHosted(2))
	}
	if l.FreeQuota(2) != 0 {
		t.Fatal("unmetered block must not free quota")
	}
	// Dropping the unmetered placement must not underflow the meter.
	l.DropOwner(1)
	if l.MeteredHosted(2) != 1 || l.Hosted(2) != 1 {
		t.Fatalf("after unmetered drop: hosted/metered = %d/%d, want 1/1", l.Hosted(2), l.MeteredHosted(2))
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Unmetered self-store still forbidden.
	if err := l.PlaceUnmetered(2, 2); !errors.Is(err, ErrSelfStore) {
		t.Fatalf("unmetered self store: %v", err)
	}
}

func TestHostsOwnersViews(t *testing.T) {
	l := NewLedger(4, 10)
	mustPlace(t, l, 0, 1)
	mustPlace(t, l, 0, 2)
	mustPlace(t, l, 3, 1)
	hosts := l.Hosts(0, nil)
	if len(hosts) != 2 {
		t.Fatalf("Hosts = %v", hosts)
	}
	owners := l.Owners(1, nil)
	if len(owners) != 2 {
		t.Fatalf("Owners = %v", owners)
	}
	// Buffer reuse appends.
	buf := make([]PeerID, 0, 8)
	buf = l.Hosts(0, buf)
	buf = l.Hosts(3, buf)
	if len(buf) != 3 {
		t.Fatalf("appended views = %v", buf)
	}
	if l.TotalPlacements() != 3 {
		t.Fatalf("TotalPlacements = %d", l.TotalPlacements())
	}
	if _, err := l.HostAt(0, 5); !errors.Is(err, ErrBadPlacement) {
		t.Fatal("HostAt out of range must fail")
	}
}

func TestOutOfRangeAccessorsAreSafe(t *testing.T) {
	l := NewLedger(2, 1)
	if l.Alive(-1) != 0 || l.Visible(9) != 0 || l.Hosted(-1) != 0 ||
		l.FreeQuota(9) != 0 || l.Online(9) || l.MeteredHosted(-1) != 0 {
		t.Fatal("out-of-range accessors must return zero values")
	}
	l.SetOnline(-1, false) // must not panic
	l.RemoveHost(99)
	l.DropOwner(-3)
	if l.Hosts(-1, nil) != nil || l.Owners(99, nil) != nil {
		t.Fatal("out-of-range views must be empty")
	}
}

func TestNewLedgerPanics(t *testing.T) {
	for _, c := range []struct{ n, q int }{{0, 1}, {3, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLedger(%d, %d) must panic", c.n, c.q)
				}
			}()
			NewLedger(c.n, int32(c.q))
		}()
	}
}

// TestLedgerFuzzConsistency drives the ledger with a long random
// operation sequence, checking full invariants periodically and at the
// end. This is the property test guarding the swap-and-backpatch logic.
// It runs twice: with the id width NewLedger picks, and with 29 id bits,
// where a host's reverse list holds 4 entries and an owner's forward
// list 8. The second run places three times as often, so placements keep
// running into both index fields and backpatches write their top values.
func TestLedgerFuzzConsistency(t *testing.T) {
	const peers = 40
	t.Run("natural", func(t *testing.T) { fuzzLedger(t, NewLedger(peers, 8), peers, 0) })
	t.Run("tight", func(t *testing.T) {
		fwd, rev := fuzzLedger(t, newLedger(peers, 8, 29), peers, 20)
		t.Logf("index fields refused %d placements at the owner's side, %d at the host's", fwd, rev)
		if fwd == 0 || rev == 0 {
			t.Fatal("placements never reached both index fields' limits: the tight split exercised too little")
		}
	})
}

// fuzzLedger runs the random operation sequence on l, with placeBias
// more chances in ten of a metered placement, and returns how many
// placements the owner's and the host's index fields refused.
func fuzzLedger(t *testing.T, l *Ledger, peers, placeBias int) (fwd, rev int) {
	t.Helper()
	r := rng.New(20240609)
	place := func(owner PeerID, err error) {
		switch {
		case !errors.Is(err, ErrBadPlacement):
		case l.Alive(owner) > l.split.maxOwnerIdx():
			fwd++
		default:
			rev++
		}
	}
	for step := 0; step < 20000; step++ {
		op := r.Intn(10 + placeBias)
		if op >= 10 {
			op = 0
		}
		switch op {
		case 0, 1, 2, 3: // place
			owner := PeerID(r.Intn(peers))
			host := PeerID(r.Intn(peers))
			if owner != host && !l.HasPlacement(owner, host) {
				place(owner, l.Place(owner, host)) // quota errors are fine
			}
		case 4: // unmetered place
			owner := PeerID(r.Intn(peers))
			host := PeerID(r.Intn(peers))
			if owner != host && !l.HasPlacement(owner, host) {
				place(owner, l.PlaceUnmetered(owner, host))
			}
		case 5: // toggle session
			l.SetOnline(PeerID(r.Intn(peers)), r.Bool(0.5))
		case 6: // drop one placement
			owner := PeerID(r.Intn(peers))
			if n := l.Alive(owner); n > 0 {
				if err := l.DropPlacementAt(owner, r.Intn(n)); err != nil {
					t.Fatal(err)
				}
			}
		case 7: // host death
			l.RemoveHost(PeerID(r.Intn(peers)))
		case 8: // owner reset
			l.DropOwner(PeerID(r.Intn(peers)))
		case 9: // full death
			l.RemovePeer(PeerID(r.Intn(peers)))
		}
		if step%500 == 0 {
			if err := l.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return fwd, rev
}

func TestTableGenerations(t *testing.T) {
	tab := NewTable(3)
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	ref := tab.Ref(1)
	if ref.ID != 1 || !tab.Current(ref) {
		t.Fatal("fresh ref must be current")
	}
	tab.Bump(1)
	if tab.Current(ref) {
		t.Fatal("bumped ref must be stale")
	}
	if tab.Gen(1) != 1 {
		t.Fatalf("Gen = %d", tab.Gen(1))
	}
	ref2 := tab.Ref(1)
	if !tab.Current(ref2) {
		t.Fatal("re-fetched ref must be current")
	}
	if tab.Ref(99) != NoRef {
		t.Fatal("out-of-range ref must be NoRef")
	}
	if tab.Current(Ref{ID: 99, Gen: 0}) {
		t.Fatal("out-of-range ref must not be current")
	}
	if NoRef.String() == "" || ref.String() == "" {
		t.Fatal("refs must format")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bump out of range must panic")
			}
		}()
		tab.Bump(7)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTable(0) must panic")
			}
		}()
		NewTable(0)
	}()
}

// TestAdjacencyEntrySizes holds both adjacency entries at 4 bytes: a
// paper-scale run reserves 256 placements and 384 host entries per
// slot, so every byte here is 16 MB there.
func TestAdjacencyEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(placement(0)); got != 4 {
		t.Errorf("placement is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(hostEntry(0)); got != 4 {
		t.Errorf("hostEntry is %d bytes, want 4", got)
	}
}

// TestIndexFieldLimits packs 28 id bits, which leaves a placement 3 bits
// for its host-side index (8 entries a host) and a host entry 4 bits for
// its owner-side index (16 placements an owner). A placement past either
// field is refused with ErrBadPlacement and leaves the ledger as it was;
// once the list shrinks, the next placement fits again.
func TestIndexFieldLimits(t *testing.T) {
	l := newLedger(40, 100, 28)
	l.SetStrict(true)
	const host = PeerID(0)
	for owner := PeerID(1); owner <= 8; owner++ {
		mustPlace(t, l, owner, host)
	}
	if err := l.Place(9, host); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("9th block on a host with a 3-bit index: %v, want ErrBadPlacement", err)
	}
	if err := l.PlaceUnmetered(9, host); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("unmetered 9th block: %v, want ErrBadPlacement", err)
	}
	if l.Hosted(host) != 8 || l.Alive(9) != 0 || l.Visible(9) != 0 {
		t.Fatalf("refused placement left hosted %d, alive %d, visible %d", l.Hosted(host), l.Alive(9), l.Visible(9))
	}

	const owner = PeerID(39)
	for h := PeerID(10); h < 26; h++ {
		mustPlace(t, l, owner, h)
	}
	if err := l.Place(owner, 26); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("17th block of an owner with a 4-bit index: %v, want ErrBadPlacement", err)
	}
	if l.Alive(owner) != 16 || l.Hosted(26) != 0 {
		t.Fatalf("refused placement left alive %d, host hosted %d", l.Alive(owner), l.Hosted(26))
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Swap-removes backpatch the top index values into other slots.
	if err := l.DropPlacementAt(owner, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.DropPlacementAt(4, 0); err != nil {
		t.Fatal(err)
	}
	mustPlace(t, l, owner, 26)
	mustPlace(t, l, 9, host)
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmeteredFlagSurvivesBackpatch moves an observer placement's
// mirror entry around the host's reverse list: the flag packed beside
// the index must come through every backpatch, or the host's quota
// accounting drifts when the placement is finally dropped.
func TestUnmeteredFlagSurvivesBackpatch(t *testing.T) {
	l := NewLedger(6, 4)
	l.SetStrict(true)
	const host, observer = PeerID(0), PeerID(5)
	for owner := PeerID(1); owner <= 3; owner++ {
		if err := l.Place(owner, host); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.PlaceUnmetered(observer, host); err != nil {
		t.Fatal(err)
	}
	// Each drop swap-removes the last reverse entry — the observer's,
	// then whatever took its place — into the freed index.
	for owner := PeerID(1); owner <= 3; owner++ {
		if err := l.DropPlacementAt(owner, 0); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckConsistency(); err != nil {
			t.Fatalf("after owner %d's drop: %v", owner, err)
		}
	}
	if got := l.MeteredHosted(host); got != 0 {
		t.Fatalf("host meters %d blocks with only the observer's left", got)
	}
	if err := l.DropPlacementAt(observer, 0); err != nil {
		t.Fatal(err)
	}
	if l.MeteredHosted(host) != 0 || l.Hosted(host) != 0 || l.FreeQuota(host) != 4 {
		t.Fatalf("host ends with %d hosted, %d metered, %d free", l.Hosted(host), l.MeteredHosted(host), l.FreeQuota(host))
	}
}
