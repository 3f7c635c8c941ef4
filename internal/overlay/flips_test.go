package overlay

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"p2pbackup/internal/rng"
)

// stagedLedger builds a small random ledger from seed: a few dozen
// slots, an id width drawn between the natural one and 29 bits (where a
// reverse list holds 4 entries), metered and unmetered placements, mixed
// session states and a recording watcher at a drawn visible threshold.
// The same seed builds the same ledger.
func stagedLedger(seed uint64) (*Ledger, *recWatcher, int32) {
	r := rng.New(seed)
	n := 8 + r.Intn(33)
	natural := bits.Len(uint(n - 1))
	l := newLedger(n, int32(1+r.Intn(12)), natural+r.Intn(30-natural))
	for range 4 * n {
		owner, host := PeerID(r.Intn(n)), PeerID(r.Intn(n))
		if owner == host || l.HasPlacement(owner, host) {
			continue
		}
		if r.Bool(0.2) {
			_ = l.PlaceUnmetered(owner, host) // index-field refusals are fine
		} else {
			_ = l.Place(owner, host) // so are quota refusals
		}
	}
	for h := range n {
		l.SetOnline(PeerID(h), r.Bool(0.7))
	}
	w := &recWatcher{}
	thr := int32(1 + r.Intn(6))
	l.Watch(w, thr, 2)
	return l, w, thr
}

// slotEvent is what one slot does in a drawn round, in the order the
// engine's log holds it: a death (the identity's removal, then its
// replacement joining in a drawn state), else a session flip toward a
// state (possibly the one the host is in), then an archive loss.
type slotEvent struct {
	dies, joinOnline bool
	flips, online    bool
	batch            int
	drops            bool
}

// drawRound draws a round of slot events over l's slots. A dying slot
// never flips, as in the engine, where a replacement's first toggle is
// at least a round after its join.
func drawRound(r *rng.Rand, l *Ledger, shards int) []slotEvent {
	evs := make([]slotEvent, l.NumPeers())
	for i := range evs {
		e := &evs[i]
		switch {
		case r.Bool(0.08):
			e.dies, e.joinOnline = true, r.Bool(0.5)
		case r.Bool(0.4):
			e.flips, e.online = true, !l.Online(PeerID(i))
			if r.Bool(0.1) {
				e.online = !e.online // already in the state: nothing to stage
			}
			e.batch = r.Intn(shards)
		}
		e.drops = r.Bool(0.08)
	}
	return evs
}

// checkStagedFlips runs three drawn rounds on two copies of one ledger:
// seq applies every slot's events through SetOnline, RemovePeer and
// DropOwner in slot order; staged stages the round's flips into shards
// batches, commits them, then applies the removals and joins in slot
// order. After each round both ledgers must agree on every counter and
// list, staged must pass CheckConsistency, the commit must fire exactly
// on the owners it took from >= thr to < thr, and each of those must
// have been fired on in the sequential order too.
func checkStagedFlips(t *testing.T, seed uint64, shards int) {
	t.Helper()
	seq, seqW, thr := stagedLedger(seed)
	staged, stagedW, _ := stagedLedger(seed)
	batches := make([]Flips, shards)
	r := rng.New(seed ^ 0x5eed)
	n := seq.NumPeers()
	for round := range 3 {
		evs := drawRound(r, seq, shards)

		seqW.visible = seqW.visible[:0]
		for i, e := range evs {
			id := PeerID(i)
			if e.dies {
				seq.RemovePeer(id)
				seq.SetOnline(id, e.joinOnline)
			}
			if e.flips {
				seq.SetOnline(id, e.online)
			}
			if e.drops {
				seq.DropOwner(id)
			}
		}

		for i, e := range evs {
			if e.flips {
				staged.StageOnline(&batches[e.batch], PeerID(i), e.online)
			}
		}
		before := slices.Clone(staged.visible)
		stagedW.visible = stagedW.visible[:0]
		staged.CommitFlips(batches)
		fired := slices.Clone(stagedW.visible)
		for o := range n {
			crossed := before[o] >= thr && staged.visible[o] < thr
			if got := slices.Contains(fired, PeerID(o)); got != crossed {
				t.Fatalf("round %d: owner %d visible %d -> %d (thr %d): commit fired %v", round, o, before[o], staged.visible[o], thr, got)
			}
			if crossed && !slices.Contains(seqW.visible, PeerID(o)) {
				t.Fatalf("round %d: commit fired on owner %d, which SetOnline in slot order never fired on", round, o)
			}
		}
		if len(fired) != len(slices.Compact(slices.Sorted(slices.Values(fired)))) {
			t.Fatalf("round %d: commit fired twice on one owner: %v", round, fired)
		}
		for i, e := range evs {
			id := PeerID(i)
			if e.dies {
				staged.RemovePeer(id)
				staged.SetOnline(id, e.joinOnline)
			}
			if e.drops {
				staged.DropOwner(id)
			}
		}

		if err := staged.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := sameLedger(seq, staged); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// sameLedger reports the first counter or list on which a and b differ.
func sameLedger(a, b *Ledger) error {
	for i := range a.NumPeers() {
		id := PeerID(i)
		if a.Online(id) != b.Online(id) || a.Visible(id) != b.Visible(id) || a.Alive(id) != b.Alive(id) ||
			a.Hosted(id) != b.Hosted(id) || a.MeteredHosted(id) != b.MeteredHosted(id) {
			return fmt.Errorf("slot %d: online/visible/alive/hosted/metered %v/%d/%d/%d/%d sequentially, %v/%d/%d/%d/%d staged", i,
				a.Online(id), a.Visible(id), a.Alive(id), a.Hosted(id), a.MeteredHosted(id),
				b.Online(id), b.Visible(id), b.Alive(id), b.Hosted(id), b.MeteredHosted(id))
		}
		if !slices.Equal(a.Hosts(id, nil), b.Hosts(id, nil)) || !slices.Equal(a.Owners(id, nil), b.Owners(id, nil)) {
			return fmt.Errorf("slot %d: adjacency differs", i)
		}
	}
	return nil
}

// TestStagedFlipsMatchSetOnline: a round of session flips staged over
// one, two or three batches and committed at once, followed by the
// round's deaths, joins and archive losses, leaves the ledger exactly as
// applying every event in slot order does, and fires the watcher on
// the net crossings, each of which the sequential order fires on too.
func TestStagedFlipsMatchSetOnline(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		for seed := range uint64(300) {
			checkStagedFlips(t, seed, shards)
		}
	}
}

// TestCommitFlipsEmptyBatches: committing batches that staged nothing,
// or only flips toward the state a host is in, changes nothing and
// fires nothing.
func TestCommitFlipsEmptyBatches(t *testing.T) {
	l := buildFan(t, 5)
	w := &recWatcher{}
	l.Watch(w, 5, 2)
	batches := make([]Flips, 2)
	l.StageOnline(&batches[1], 3, true) // already online
	l.CommitFlips(batches)
	if l.Visible(0) != 5 || len(w.visible) != 0 || !l.Online(3) {
		t.Fatalf("visible %d, fired %v, host online %v", l.Visible(0), w.visible, l.Online(3))
	}
	l.StageOnline(&batches[0], 3, false)
	l.StageOnline(&batches[1], 4, false)
	l.CommitFlips(batches)
	if l.Visible(0) != 3 || !slices.Equal(w.visible, []PeerID{0}) || l.Online(3) || l.Online(4) {
		t.Fatalf("visible %d, fired %v, hosts online %v %v", l.Visible(0), w.visible, l.Online(3), l.Online(4))
	}
	if err := l.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// FuzzStagedFlips is TestStagedFlipsMatchSetOnline over any seed and
// one to three batches.
func FuzzStagedFlips(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(1))
	f.Add(uint64(42), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8) {
		checkStagedFlips(t, seed, 1+int(shards%3))
	})
}
