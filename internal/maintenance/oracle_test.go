package maintenance

// The differential oracle for candidate-pool deduplication. A slot's
// pool used to carry an id → generation map beside the slice, consulted
// for every sampled candidate; the mark array replaced it. The map lives
// on here: poolOracle wraps the Env (and the planners' view accessor),
// sees every candidate the Maintainer draws and every view it asks for,
// and runs the replaced procedure — prune with map deletes, the filter
// chain with the map lookup, acceptance on a clone of the rng — against
// its own map, its own partner set rebuilt from the ledger, and its own
// copy of the pool. The Maintainer must look at exactly the candidates
// the map would have let through, end every refresh with exactly the
// pool the map would have built, and leave the rng exactly where the
// replaced code would have left it. The oracle is the arbiter: a
// counterexample is a bug in the marks, never in the test.

import (
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// refPool is a slot's pool as it was kept before the mark array.
type refPool struct {
	entries []poolEntry
	in      map[overlay.PeerID]uint32 // id -> gen, for dedup
	// replaced holds the candidates pruned this episode because their
	// slot changed occupant (coverage only).
	replaced map[overlay.PeerID]bool
}

// poolOracle is a maintenance.Env that mirrors the map-based refreshPool
// of the acting owner.
type poolOracle struct {
	t     *testing.T
	m     *Maintainer
	inner *fakeEnv
	refs  map[overlay.PeerID]*refPool

	owner     overlay.PeerID
	unmetered bool

	// State of the refresh in flight.
	refreshing bool
	partner    map[overlay.PeerID]bool
	ownerView  selection.View
	draws      int
	expectView overlay.PeerID // the candidate the map lets through, until its view is asked for
	expectRng  [4]uint64      // where the replaced code leaves the rng after the last draw
	lastRng    *rng.Rand

	refreshes, accepted, deduped, repooled, atCap int // coverage counters
}

func (o *poolOracle) Round() int64 { return o.inner.Round() }

func (o *poolOracle) ref() *refPool {
	rp := o.refs[o.owner]
	if rp == nil {
		rp = &refPool{in: map[overlay.PeerID]uint32{}, replaced: map[overlay.PeerID]bool{}}
		o.refs[o.owner] = rp
	}
	return rp
}

// act names the owner whose step comes next.
func (o *poolOracle) act(id overlay.PeerID) {
	o.owner = id
	o.unmetered = o.m.peers[id].unmetered
	o.refreshing = false
	o.expectView = overlay.NoPeer
	o.lastRng = nil
}

// View serves the Maintainer's and the planners' view lookups. The
// owner's own view is asked for once per refresh, after the prune and
// before the first draw: that is where the oracle prunes too.
func (o *poolOracle) View(id overlay.PeerID) selection.View {
	if id == o.owner {
		o.endRefresh()
		o.beginRefresh()
		return o.inner.View(id)
	}
	if id != o.expectView {
		o.t.Fatalf("owner %d: looked at candidate %d, which the map-based filters reject (they let through %d)",
			o.owner, id, o.expectView)
	}
	o.expectView = overlay.NoPeer
	return o.inner.View(id)
}

// beginRefresh is the head of the replaced refreshPool: partner set,
// prune with map deletes — then the pruned pools must agree entry for
// entry.
func (o *poolOracle) beginRefresh() {
	m, rp := o.m, o.ref()
	o.refreshing = true
	o.refreshes++
	o.draws = 0
	o.partner = map[overlay.PeerID]bool{}
	for _, h := range m.led.Hosts(o.owner, nil) {
		o.partner[h] = true
	}
	if m.xfer != nil && !o.unmetered {
		for _, h := range m.xfer.PendingHosts(o.owner, nil) {
			o.partner[h] = true
		}
	}
	valid := rp.entries[:0]
	for _, e := range rp.entries {
		if !m.tab.Current(e.ref) || o.partner[e.ref.ID] {
			delete(rp.in, e.ref.ID)
			if !m.tab.Current(e.ref) {
				rp.replaced[e.ref.ID] = true
			}
			continue
		}
		valid = append(valid, e)
	}
	rp.entries = valid
	o.comparePools("after the prune", true)
	o.ownerView = o.inner.View(o.owner)
}

// SampleCandidate draws for the Maintainer and runs the replaced loop
// body on the draw.
func (o *poolOracle) SampleCandidate(r *rng.Rand) overlay.PeerID {
	m, rp := o.m, o.ref()
	if !o.refreshing {
		o.t.Fatalf("owner %d: candidate drawn outside a refresh", o.owner)
	}
	o.checkRng()
	if len(rp.entries) >= m.params.TotalBlocks || o.draws >= m.params.PoolSamplePerRound {
		o.t.Fatalf("owner %d: draw %d with %d pooled: the replaced loop had stopped", o.owner, o.draws+1, len(rp.entries))
	}
	c := o.inner.SampleCandidate(r)
	o.draws++
	o.lastRng = r
	o.expectRng = r.State()
	if c == overlay.NoPeer || c == o.owner || !m.led.Online(c) {
		return c
	}
	if gen, ok := rp.in[c]; ok && gen == m.tab.Gen(c) {
		o.deduped++
		return c // already pooled
	}
	if !o.unmetered && m.freeQuota(c) < 1 {
		return c
	}
	if o.partner[c] {
		return c // one block per partner per archive
	}
	o.expectView = c
	candView := o.inner.View(c)
	ctx := selection.Context{Round: o.inner.Round()}
	clone := *r
	if selection.AgreeCtx(&clone, m.pol, ctx, o.ownerView, candView) {
		rp.in[c] = m.tab.Gen(c)
		rp.entries = append(rp.entries, poolEntry{ref: m.tab.Ref(c), score: m.pol.Score(ctx, candView)})
		o.accepted++
		if rp.replaced[c] {
			o.repooled++
		}
	}
	o.expectRng = clone.State()
	return c
}

// checkRng holds the Maintainer's rng to where the replaced code would
// be after the previous draw (its acceptance draws included).
func (o *poolOracle) checkRng() {
	if o.expectView != overlay.NoPeer {
		o.t.Fatalf("owner %d: candidate %d passes the map-based filters but was skipped", o.owner, o.expectView)
	}
	if o.lastRng != nil && o.lastRng.State() != o.expectRng {
		o.t.Fatalf("owner %d: rng diverged from the map-based refresh after draw %d", o.owner, o.draws)
	}
}

// endRefresh closes the refresh in flight, if any: the sampling loop
// must have run to the replaced loop's own end.
func (o *poolOracle) endRefresh() {
	if !o.refreshing {
		return
	}
	o.refreshing = false
	o.checkRng()
	rp := o.ref()
	if o.draws < o.m.params.PoolSamplePerRound && len(rp.entries) < o.m.params.TotalBlocks {
		o.t.Fatalf("owner %d: sampling stopped after %d draws with %d pooled", o.owner, o.draws, len(rp.entries))
	}
	if len(rp.entries) == o.m.params.TotalBlocks {
		o.atCap++
	}
}

// comparePools holds the Maintainer's pool to the oracle's: the same
// candidates under the same identities with the same scores, and (when
// ordered) in the same order.
func (o *poolOracle) comparePools(when string, ordered bool) {
	got, want := o.m.peers[o.owner].pool, o.ref().entries
	if len(got) != len(want) {
		o.t.Fatalf("owner %d %s: pool holds %d candidates, map-based pool %d", o.owner, when, len(got), len(want))
	}
	byID := map[overlay.PeerID]poolEntry{}
	for _, e := range want {
		byID[e.ref.ID] = e
	}
	for i, e := range got {
		w, ok := byID[e.ref.ID]
		if ordered {
			w, ok = want[i], true
		}
		if !ok || e.ref != w.ref || e.score != w.score {
			o.t.Fatalf("owner %d %s: pool[%d] = %v score %v, map-based pool has %v score %v",
				o.owner, when, i, e.ref, e.score, w.ref, w.score)
		}
	}
}

// afterStep closes the owner's step. Candidates the upload loop took
// leave the map as takeBestPlaceable's delete removed them; the oracle
// then adopts the Maintainer's order (takes swap-remove, which is not
// what is under test) and compares.
func (o *poolOracle) afterStep() {
	o.endRefresh()
	rp := o.ref()
	left := map[overlay.PeerID]bool{}
	for _, e := range o.m.peers[o.owner].pool {
		left[e.ref.ID] = true
	}
	kept := rp.entries[:0]
	for _, e := range rp.entries {
		if left[e.ref.ID] {
			kept = append(kept, e)
		} else {
			delete(rp.in, e.ref.ID)
		}
	}
	rp.entries = kept
	o.comparePools("after the step", false)
	rp.entries = append(rp.entries[:0], o.m.peers[o.owner].pool...)
	if p := &o.m.peers[o.owner]; len(p.pool) == 0 && p.pool != nil {
		o.t.Fatalf("owner %d: step left an empty pool holding a buffer of %d", o.owner, cap(p.pool))
	}
	o.episodeMayHaveEnded(o.owner)
}

// episodeMayHaveEnded mirrors finishEpisode and the resets: an idle slot
// has an empty map, and must hold no buffer.
func (o *poolOracle) episodeMayHaveEnded(id overlay.PeerID) {
	p := &o.m.peers[id]
	if p.st != stateIdle {
		return
	}
	if p.pool != nil {
		o.t.Fatalf("slot %d is idle and still holds a pool buffer of %d", id, cap(p.pool))
	}
	delete(o.refs, id)
}

// oracleXfer is a minimal Transfers: a list of in-flight uploads with a
// per-owner concurrency cap.
type oracleXfer struct {
	flights []oracleFlight
	slots   int
}

type oracleFlight struct {
	owner overlay.PeerID
	host  overlay.Ref
}

func (x *oracleXfer) BeginUpload(owner overlay.PeerID, host overlay.Ref) {
	x.flights = append(x.flights, oracleFlight{owner, host})
}

func (x *oracleXfer) Inflight(owner overlay.PeerID) int {
	n := 0
	for _, f := range x.flights {
		if f.owner == owner {
			n++
		}
	}
	return n
}

func (x *oracleXfer) UploadSlots(owner overlay.PeerID) int { return x.slots - x.Inflight(owner) }

func (x *oracleXfer) Reserved(host overlay.PeerID) int {
	n := 0
	for _, f := range x.flights {
		if f.host.ID == host {
			n++
		}
	}
	return n
}

func (x *oracleXfer) PendingHosts(owner overlay.PeerID, buf []overlay.PeerID) []overlay.PeerID {
	for _, f := range x.flights {
		if f.owner == owner {
			buf = append(buf, f.host.ID)
		}
	}
	return buf
}

// abort drops the flights matching drop.
func (x *oracleXfer) abort(drop func(oracleFlight) bool) {
	kept := x.flights[:0]
	for _, f := range x.flights {
		if !drop(f) {
			kept = append(kept, f)
		}
	}
	x.flights = kept
}

// runPoolOracle drives one randomised population for the given number
// of rounds under the oracle: a handful of owners (one unmetered) keep
// episodes going for many rounds — one block per round, so pools fill to
// their TotalBlocks cap and the same candidates are drawn again and
// again — while peers flip sessions and die around them (a death bumps
// the slot's generation: a pooled candidate is pruned and can be pooled
// again as the new identity).
func runPoolOracle(t *testing.T, seed uint64, planned, transfers bool) *poolOracle {
	const (
		peers  = 48
		rounds = 120
	)
	params := Params{
		TotalBlocks:          12,
		DataBlocks:           4,
		RepairThreshold:      8,
		PoolSamplePerRound:   40,
		UploadBudgetPerRound: 1,
		DropOffline:          true,
		CancelOnRecover:      true,
	}
	world := rng.New(seed)     // events
	steps := rng.New(seed + 1) // the Maintainer's draws
	led := overlay.NewLedger(peers, 24)
	led.SetStrict(true)
	tab := overlay.NewTable(peers)
	env := &fakeEnv{ages: make([]int64, peers), n: peers - 1} // the last slot is the observer: never a candidate
	for i := range env.ages {
		env.ages[i] = int64(world.Intn(150))
	}
	o := &poolOracle{t: t, inner: env, refs: map[overlay.PeerID]*refPool{}, expectView: overlay.NoPeer}
	m := New(params, led, tab, selection.Adapt(selection.AgeBased{L: 100}), o)
	o.m = m
	observer := overlay.PeerID(peers - 1)
	m.SetUnmetered(observer, true)
	var xfer *oracleXfer
	if transfers {
		xfer = &oracleXfer{slots: 2}
		m.SetTransfers(xfer)
	}
	ws := NewWorkspace(peers, o.View)
	owners := []overlay.PeerID{0, 1, 2, 3, 4, 5, observer}

	// reset mirrors what the engine does around Reset and ResetArchive.
	forget := func(id overlay.PeerID) {
		if xfer != nil {
			xfer.abort(func(f oracleFlight) bool { return f.owner == id })
		}
		o.episodeMayHaveEnded(id)
	}
	for round := int64(0); round < rounds; round++ {
		env.round = round
		for id := overlay.PeerID(0); id < observer; id++ {
			switch {
			case world.Bool(0.02): // departure; the slot's next occupant is a new identity
				led.RemovePeer(id)
				tab.Bump(id)
				if xfer != nil {
					xfer.abort(func(f oracleFlight) bool { return f.host.ID == id })
				}
				m.Reset(id)
				forget(id)
				env.ages[id] = 0
				led.SetOnline(id, true)
			case world.Bool(0.15):
				led.SetOnline(id, !led.Online(id))
			}
			env.ages[id]++
		}
		if xfer != nil {
			// Land some of the uploads whose both ends are up.
			landed := xfer.flights[:0:0]
			for _, f := range xfer.flights {
				if world.Bool(0.5) && led.Online(f.owner) && led.Online(f.host.ID) {
					landed = append(landed, f)
				}
			}
			for _, f := range landed {
				xfer.abort(func(g oracleFlight) bool { return g == f })
				m.DeliverUpload(f.owner, f.host.ID)
				o.episodeMayHaveEnded(f.owner)
			}
		}
		ws.Reset()
		for _, id := range owners {
			if m.LostArchive(id) {
				m.ResetArchive(id)
				forget(id)
			}
			if !led.Online(id) || !m.WantsStep(id) {
				continue
			}
			o.act(id)
			if planned && id != observer { // the engine steps observers sequentially under v3 too
				m.PlanStep(steps, id, ws)
			} else {
				m.Step(steps, id)
			}
			o.afterStep()
		}
		for i := range ws.Results {
			m.ApplyPlan(ws, &ws.Results[i])
			o.episodeMayHaveEnded(ws.Results[i].Owner)
		}
		if err := led.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestPoolDedupMatchesMapOracle runs the oracle over instant and metered
// placement, through Step and through PlanStep + ApplyPlan, and checks
// that the runs reached the cases the marks could get wrong.
func TestPoolDedupMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct {
		name               string
		planned, transfers bool
	}{
		{"step", false, false},
		{"step-transfers", false, true},
		{"plan", true, false},
		{"plan-transfers", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refreshes, accepted, deduped, repooled, atCap int
			for seed := uint64(1); seed <= 12; seed++ {
				o := runPoolOracle(t, 100*seed, tc.planned, tc.transfers)
				refreshes += o.refreshes
				accepted += o.accepted
				deduped += o.deduped
				repooled += o.repooled
				atCap += o.atCap
			}
			t.Logf("%d refreshes, %d candidates accepted, %d draws rejected as already pooled, %d pooled again under a new identity, %d refreshes ended at the cap",
				refreshes, accepted, deduped, repooled, atCap)
			if refreshes == 0 || accepted == 0 || deduped == 0 || repooled == 0 || atCap == 0 {
				t.Fatal("the schedule never exercised the dedup")
			}
		})
	}
}
