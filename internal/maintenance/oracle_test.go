package maintenance

// Differential oracles for refreshPool's candidate loop. Two earlier
// forms of it live on here, as the references the current one is tested
// against:
//
//   - parentSample is the sampling loop as it stood before it was
//     flattened: a candidate from Env.SampleCandidate, then Ledger.Online,
//     the membership test, freeQuota, a View and selection.AgreeCtx, line
//     for line. TestRefreshPoolMatchesParentLoop drives it and
//     refreshPool from cloned rngs, policy by policy.
//   - the id → generation map that deduplicated a slot's pool before the
//     mark array did. poolOracle keeps one per repairing owner and runs
//     parentSample over it at every refresh a Step or a PlanStep makes
//     (TestPoolDedupMatchesMapOracle).
//
// Either way the Maintainer must end every refresh with exactly the pool
// the reference builds and leave the rng exactly where the reference
// leaves its clone. The references are the arbiters: a counterexample is
// a bug in refreshPool, never in the test.

import (
	"testing"

	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// parentEnv is maintenance.Env as the parent loop knew it.
type parentEnv interface {
	View(id overlay.PeerID) selection.View
	SampleCandidate(r *rng.Rand) overlay.PeerID
	Round() int64
}

// drawing lifts an Env to the parent's: SampleCandidate was the
// engine's uniform draw over the population.
type drawing struct{ Env }

func (d drawing) SampleCandidate(r *rng.Rand) overlay.PeerID {
	return overlay.PeerID(r.Intn(d.Population()))
}

// membership is what the sampling loop asks of the pool's dedup
// structure: the mark array (*markSet) or the map before it (*refPool).
type membership interface {
	taken(id overlay.PeerID) bool
	setPooled(id overlay.PeerID)
}

// parentSample is the parent's sampling loop. pol is the policy to
// negotiate with: a twin of the Maintainer's.
func parentSample(r *rng.Rand, m *Maintainer, env parentEnv, pol selection.Policy, id overlay.PeerID, unmetered bool, pool []poolEntry, marks membership) []poolEntry {
	ctx := selection.Context{Round: env.Round()}
	ownerView := env.View(id)
	for tries := 0; tries < m.params.PoolSamplePerRound && len(pool) < m.params.TotalBlocks; tries++ {
		c := env.SampleCandidate(r)
		if c == overlay.NoPeer || c == id {
			continue
		}
		if !m.led.Online(c) {
			continue // cannot negotiate with an offline peer
		}
		if marks.taken(c) {
			continue // already pooled, or a partner: one block per partner per archive
		}
		if !unmetered && m.freeQuota(c) < 1 {
			continue
		}
		candView := env.View(c)
		if !selection.AgreeCtx(r, pol, ctx, ownerView, candView) {
			continue
		}
		marks.setPooled(c)
		pool = append(pool, poolEntry{ref: m.tab.Ref(c), score: pol.Score(ctx, candView)})
	}
	return pool
}

// parentRefreshPool is the parent's refreshPool on scratch of its own:
// partner marks, the prune, then parentSample.
func parentRefreshPool(r *rng.Rand, m *Maintainer, env parentEnv, pol selection.Policy, id overlay.PeerID, unmetered bool, pool []poolEntry, marks *markSet) []poolEntry {
	marks.open()
	for _, h := range m.led.Hosts(id, nil) {
		marks.setPartner(h)
	}
	if m.xfer != nil && !unmetered {
		for _, h := range m.xfer.PendingHosts(id, nil) {
			marks.setPartner(h)
		}
	}
	valid := pool[:0]
	for _, e := range pool {
		if !m.tab.Current(e.ref) || marks.isPartner(e.ref.ID) {
			continue
		}
		marks.setPooled(e.ref.ID)
		valid = append(valid, e)
	}
	return parentSample(r, m, env, pol, id, unmetered, valid, marks)
}

// worldEnv is the Env of a churnWorld: everything a registered policy
// can read of a peer — an age, a monitored history, the oracle's truth —
// with the first n slots as candidates.
type worldEnv struct {
	ages  []int64
	hist  []monitor.IntervalHistory
	avail []float64
	death []int64
	n     int
	round int64
	joins []int64
}

func (e *worldEnv) View(id overlay.PeerID) selection.View {
	return selection.View{
		Observed: selection.Observed{Age: e.ages[id], History: &e.hist[id]},
		Oracle:   selection.Oracle{Availability: e.avail[id], Remaining: e.death[id] - e.round},
	}
}
func (e *worldEnv) Joins() []int64  { return joinsOf(e.ages[:e.n], e.round, &e.joins) }
func (e *worldEnv) Population() int { return e.n }
func (e *worldEnv) Round() int64    { return e.round }

func (e *worldEnv) record(id overlay.PeerID, online bool) {
	if err := e.hist[id].RecordTransition(e.round, online); err != nil {
		panic(err)
	}
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

// worldSpec sizes a churnWorld.
type worldSpec struct {
	seed               uint64
	peers, rounds      int
	owners             int // the first owners slots keep an archive, and so does the observer
	quota              int32
	params             Params
	planned, transfers bool
}

// churnWorld is the randomised population the oracles run in: owners
// keep episodes going for many rounds — a block or two per round, so
// pools fill and the same candidates are drawn again and again — while
// peers flip sessions and die around them (a death bumps the slot's
// generation: a pooled candidate is pruned and can be pooled again as
// the new identity). The last slot is an unmetered observer, never a
// candidate.
type churnWorld struct {
	spec     worldSpec
	env      *worldEnv
	m        *Maintainer
	led      *overlay.Ledger
	tab      *overlay.Table
	xfer     *oracleXfer // nil: instant placement
	ws       *Workspace
	events   *rng.Rand // the population's
	steps    *rng.Rand // the Maintainer's draws
	observer overlay.PeerID
}

// newChurnWorld builds the world and its Maintainer over wrap(env), the
// Env an oracle may interpose on.
func newChurnWorld(spec worldSpec, pol selection.Policy, wrap func(*worldEnv) Env) *churnWorld {
	w := &churnWorld{
		spec:     spec,
		led:      overlay.NewLedger(spec.peers, spec.quota),
		tab:      overlay.NewTable(spec.peers),
		ws:       NewWorkspace(spec.peers),
		events:   rng.New(spec.seed),
		steps:    rng.New(spec.seed + 1),
		observer: overlay.PeerID(spec.peers - 1),
	}
	w.led.SetStrict(true)
	w.env = &worldEnv{
		ages:  make([]int64, spec.peers),
		hist:  make([]monitor.IntervalHistory, spec.peers),
		avail: make([]float64, spec.peers),
		death: make([]int64, spec.peers),
		n:     spec.peers - 1,
	}
	truth := rng.New(spec.seed + 2)
	for i := range w.env.ages {
		w.env.ages[i] = int64(w.events.Intn(150))
		w.env.hist[i] = *monitor.NewIntervalHistory(30)
		w.env.record(overlay.PeerID(i), true)
		w.env.avail[i] = truth.Float64()
		w.env.death[i] = int64(truth.Intn(1000))
	}
	w.m = New(spec.params, w.led, w.tab, pol, wrap(w.env))
	w.m.SetUnmetered(w.observer, true)
	if spec.transfers {
		w.xfer = &oracleXfer{slots: 2}
		w.m.SetTransfers(w.xfer)
	}
	return w
}

// run plays the rounds. Every owner's step goes through turn, which must
// call step once; ended is told of every slot whose episode may just
// have ended outside a step (a reset, a delivery, an applied plan).
func (w *churnWorld) run(t *testing.T, turn func(id overlay.PeerID, step func()), ended func(id overlay.PeerID)) {
	m, led, env, xfer := w.m, w.led, w.env, w.xfer
	// forget mirrors what the engine does around Reset and ResetArchive.
	forget := func(id overlay.PeerID) {
		if xfer != nil {
			xfer.abort(func(f oracleFlight) bool { return f.owner == id })
		}
		ended(id)
	}
	for round := int64(0); round < int64(w.spec.rounds); round++ {
		env.round = round
		for id := overlay.PeerID(0); id < w.observer; id++ {
			switch {
			case w.events.Bool(0.02): // departure; the slot's next occupant is a new identity
				led.RemovePeer(id)
				w.tab.Bump(id)
				if xfer != nil {
					xfer.abort(func(f oracleFlight) bool { return f.host.ID == id })
				}
				m.Reset(id)
				forget(id)
				env.ages[id] = 0
				env.hist[id].Reset()
				env.record(id, true)
				led.SetOnline(id, true)
			case w.events.Bool(0.15):
				led.SetOnline(id, !led.Online(id))
				env.record(id, led.Online(id))
			}
			env.ages[id]++
		}
		if xfer != nil {
			// Land some of the uploads whose both ends are up.
			landed := xfer.flights[:0:0]
			for _, f := range xfer.flights {
				if w.events.Bool(0.5) && led.Online(f.owner) && led.Online(f.host.ID) {
					landed = append(landed, f)
				}
			}
			for _, f := range landed {
				xfer.abort(func(g oracleFlight) bool { return g == f })
				m.DeliverUpload(f.owner, f.host.ID)
				ended(f.owner)
			}
		}
		w.ws.Reset()
		for i := 0; i <= w.spec.owners; i++ {
			id := overlay.PeerID(i)
			if i == w.spec.owners {
				id = w.observer
			}
			if m.LostArchive(id) {
				m.ResetArchive(id)
				forget(id)
			}
			if !led.Online(id) || !m.WantsStep(id) {
				continue
			}
			turn(id, func() {
				if w.planned(id) {
					m.PlanStep(w.steps, id, w.ws)
				} else {
					m.Step(w.steps, id)
				}
			})
		}
		for i := range w.ws.Results {
			m.ApplyPlan(w.ws, &w.ws.Results[i])
			ended(w.ws.Results[i].Owner)
		}
		if err := led.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// planned reports whether the owner's steps are planned: the engine
// steps observers sequentially under v3 too.
func (w *churnWorld) planned(id overlay.PeerID) bool { return w.spec.planned && id != w.observer }

// ---------------------------------------------------------------------------
// The flattened loop against the parent's.

// moodyPolicy breaks Score's purity on purpose: what it scores depends
// on how often it has been asked, so two of them agree only for as long
// as they are asked about the same candidates in the same order — which
// is what holds refreshPool to scoring exactly the candidates the
// parent's loop scores, once each, in its order. It accepts as the
// paper's policy does at horizon 100.
type moodyPolicy struct{ asked int64 }

func (p *moodyPolicy) Name() string { return "moody" }

func (p *moodyPolicy) AcceptHorizon() int64 { return 100 }

func (p *moodyPolicy) Score(_ selection.Context, c selection.View) float64 {
	p.asked++
	return float64((c.Observed.Age + p.asked) % 7)
}

// twin returns a policy that will answer as pol is about to: pol itself,
// unless it keeps state.
func twin(pol selection.Policy) selection.Policy {
	if p, ok := pol.(*moodyPolicy); ok {
		c := *p
		return &c
	}
	return pol
}

// oraclePolicies lists what the oracles negotiate with: every registered
// spec at horizon 100, the paper's policy at a horizon shorter than most
// of the world's ages (so that its acceptance clamps), the stateful
// policy. The short-horizon row keeps the name it had when an adapted
// legacy Strategy filled it: its subtest names are in the tier-1 floor.
func oraclePolicies(t *testing.T) map[string]func() selection.Policy {
	policies := map[string]func() selection.Policy{
		"legacy-age": func() selection.Policy { return mustParse(t, "age:L=24") },
		"stateful":   func() selection.Policy { return &moodyPolicy{} },
	}
	for _, spec := range selection.Names() {
		policies[spec] = func() selection.Policy {
			pol, err := selection.ParseWith(spec, selection.Defaults{Horizon: 100})
			if err != nil {
				t.Fatal(err)
			}
			return pol
		}
	}
	return policies
}

// TestRefreshPoolMatchesParentLoop runs every policy through churnWorlds
// whose every peer keeps an archive — so hosts run out of quota — with
// instant and metered placement (reservations included), stepped and
// planned, the observer unmetered in all of them. Before each owner's
// step it refreshes the owner's pool, on the scratch the step is about
// to use, next to parentRefreshPool on a clone of the pool and of the
// rng: the same candidates with the same scores in the same order, and
// the same rng state.
func TestRefreshPoolMatchesParentLoop(t *testing.T) {
	var outOfQuota, reservedOut int // coverage, over all worlds
	for name, makePolicy := range oraclePolicies(t) {
		for _, mode := range []struct {
			name               string
			planned, transfers bool
		}{
			{"step", false, false},
			{"step-transfers", false, true},
			{"plan", true, false},
			{"plan-transfers", true, true},
		} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				spec := worldSpec{
					seed: 7, peers: 40, rounds: 50, owners: 39, quota: 8,
					params: Params{
						TotalBlocks:          10,
						DataBlocks:           4,
						RepairThreshold:      7,
						PoolSamplePerRound:   24,
						UploadBudgetPerRound: 2,
					},
					planned: mode.planned, transfers: mode.transfers,
				}
				w := newChurnWorld(spec, makePolicy(), func(e *worldEnv) Env { return e })
				m := w.m
				refMarks := newMarkSet(spec.peers)
				accepted := 0
				w.run(t, func(id overlay.PeerID, step func()) {
					for c := overlay.PeerID(0); c < w.observer; c++ {
						if w.led.FreeQuota(c) == 0 {
							outOfQuota++
						} else if w.xfer != nil && m.freeQuota(c) < 1 {
							reservedOut++
						}
					}
					p := &m.peers[id]
					ws := &m.own
					if w.planned(id) {
						ws = w.ws
					}
					before := len(p.pool)
					clone := *w.steps
					want := parentRefreshPool(&clone, m, drawing{w.env}, twin(m.pol), id, p.unmetered,
						append([]poolEntry(nil), p.pool...), &refMarks)
					m.refreshPool(w.steps, id, p, ws)
					if len(p.pool) != len(want) {
						t.Fatalf("round %d owner %d: refreshPool pooled %d candidates, the parent's loop %d",
							w.env.round, id, len(p.pool), len(want))
					}
					for i, e := range p.pool {
						if e.ref != want[i].ref || e.score != want[i].score {
							t.Fatalf("round %d owner %d: pool[%d] = %v score %v, the parent's loop has %v score %v",
								w.env.round, id, i, e.ref, e.score, want[i].ref, want[i].score)
						}
					}
					if w.steps.State() != clone.State() {
						t.Fatalf("round %d owner %d: rng diverged from the parent's loop", w.env.round, id)
					}
					accepted += max(len(p.pool)-before, 0)
					step()
				}, func(overlay.PeerID) {})
				if accepted == 0 {
					t.Fatal("no refresh ever accepted a candidate")
				}
			})
		}
	}
	if outOfQuota == 0 || reservedOut == 0 {
		t.Fatalf("the worlds never ran hosts out of quota (%d) or out of unreserved quota (%d)", outOfQuota, reservedOut)
	}
}

// ---------------------------------------------------------------------------
// The mark array against the map it replaced.

// refPool is a slot's pool as it was kept before the mark array: the
// entries, and an id → generation map consulted for every candidate.
// With the partner set of the refresh in flight it is the membership
// parentSample asks.
type refPool struct {
	entries []poolEntry
	in      map[overlay.PeerID]uint32 // id -> gen, for dedup
	// replaced holds the candidates pruned this episode because their
	// slot changed occupant (coverage only).
	replaced map[overlay.PeerID]bool

	tab     *overlay.Table
	partner map[overlay.PeerID]bool
	deduped int // draws rejected as already pooled (coverage)
}

func (rp *refPool) taken(c overlay.PeerID) bool {
	if gen, ok := rp.in[c]; ok && gen == rp.tab.Gen(c) {
		rp.deduped++
		return true // already pooled
	}
	return rp.partner[c] // one block per partner per archive
}

func (rp *refPool) setPooled(c overlay.PeerID) { rp.in[c] = rp.tab.Gen(c) }

// poolOracle is a maintenance.Env that mirrors the map-based refreshPool
// of the acting owner. The Maintainer states the population once per
// refresh, after its prune and before its first draw: there the oracle
// prunes with map deletes (the pruned pools must agree entry for entry),
// then runs parentSample over its map from a clone of the rng. When the
// step is over the Maintainer's rng must be where the clone ended and
// its pool must be the map-based one.
type poolOracle struct {
	t     *testing.T
	w     *churnWorld
	inner *worldEnv
	refs  map[overlay.PeerID]*refPool

	owner     overlay.PeerID
	refreshed bool      // the step in flight has refreshed its pool
	expectRng rng.State // where the replaced code leaves the rng: as the step found it, then after each refresh

	refreshes, accepted, deduped, repooled, atCap int // coverage counters
}

func (o *poolOracle) Round() int64 { return o.inner.Round() }

func (o *poolOracle) View(id overlay.PeerID) selection.View { return o.inner.View(id) }

func (o *poolOracle) Joins() []int64 { return o.inner.Joins() }

func (o *poolOracle) Population() int {
	o.refresh()
	return o.inner.Population()
}

func (o *poolOracle) ref() *refPool {
	rp := o.refs[o.owner]
	if rp == nil {
		rp = &refPool{in: map[overlay.PeerID]uint32{}, replaced: map[overlay.PeerID]bool{}, tab: o.w.tab}
		o.refs[o.owner] = rp
	}
	return rp
}

// prune is the head of the replaced refreshPool: the partner set, then
// the prune with map deletes.
func (o *poolOracle) prune() *refPool {
	m, rp := o.w.m, o.ref()
	rp.partner = map[overlay.PeerID]bool{}
	for _, h := range m.led.Hosts(o.owner, nil) {
		rp.partner[h] = true
	}
	if m.xfer != nil && !m.peers[o.owner].unmetered {
		for _, h := range m.xfer.PendingHosts(o.owner, nil) {
			rp.partner[h] = true
		}
	}
	valid := rp.entries[:0]
	for _, e := range rp.entries {
		if !m.tab.Current(e.ref) || rp.partner[e.ref.ID] {
			delete(rp.in, e.ref.ID)
			if !m.tab.Current(e.ref) {
				rp.replaced[e.ref.ID] = true
			}
			continue
		}
		valid = append(valid, e)
	}
	rp.entries = valid
	return rp
}

// settle closes whatever came before — the start of the step, or an
// earlier refresh of it (a repair that reaches its decode point
// refreshes again as an upload): the Maintainer must have drawn exactly
// what the replaced code draws.
func (o *poolOracle) settle() {
	if o.w.steps.State() != o.expectRng {
		o.t.Fatalf("owner %d: rng diverged from the map-based refresh (refreshed this step: %v)", o.owner, o.refreshed)
	}
}

// refresh runs the replaced refreshPool at the point the Maintainer is
// about to sample.
func (o *poolOracle) refresh() {
	o.settle()
	o.refreshed = true
	o.refreshes++
	m := o.w.m
	rp := o.prune()
	o.comparePools("after the prune", true)

	clone := *o.w.steps
	before := len(rp.entries)
	rp.deduped = 0
	rp.entries = parentSample(&clone, m, drawing{o.inner}, twin(m.pol), o.owner, m.peers[o.owner].unmetered, rp.entries, rp)
	o.expectRng = clone.State()
	o.deduped += rp.deduped
	o.accepted += len(rp.entries) - before
	for _, e := range rp.entries[before:] {
		if rp.replaced[e.ref.ID] {
			o.repooled++
		}
	}
	if len(rp.entries) == m.params.TotalBlocks {
		o.atCap++
	}
}

// comparePools holds the Maintainer's pool to the oracle's: the same
// candidates under the same identities with the same scores, and (when
// ordered) in the same order.
func (o *poolOracle) comparePools(when string, ordered bool) {
	got, want := o.w.m.peers[o.owner].pool, o.ref().entries
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

// turn runs one owner's step under the oracle. Candidates the upload
// loop took leave the map as takeBestPlaceable's delete removed them;
// the oracle then adopts the Maintainer's order (takes swap-remove,
// which is not what is under test) and compares.
func (o *poolOracle) turn(id overlay.PeerID, step func()) {
	o.owner = id
	o.refreshed = false
	o.expectRng = o.w.steps.State()
	// What a refresh first thing in the step would prune (pruning is
	// idempotent, and a step that does not refresh ends its episode).
	pruned := len(o.prune().entries)
	step()
	o.settle()

	p := &o.w.m.peers[id]
	if !o.refreshed && len(p.pool) > 0 && pruned < o.w.m.params.TotalBlocks {
		// Only a refresh that pruned and found the pool at its cap keeps
		// a pool without sampling into it.
		o.t.Fatalf("owner %d: the step did not sample with %d pooled", id, pruned)
	}
	rp := o.ref()
	left := map[overlay.PeerID]bool{}
	for _, e := range p.pool {
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
	rp.entries = append(rp.entries[:0], p.pool...)
	if len(p.pool) == 0 && p.pool != nil {
		o.t.Fatalf("owner %d: step left an empty pool holding a buffer of %d", id, cap(p.pool))
	}
	o.episodeMayHaveEnded(id)
}

// episodeMayHaveEnded mirrors finishEpisode and the resets: an idle slot
// has an empty map, and must hold no buffer.
func (o *poolOracle) episodeMayHaveEnded(id overlay.PeerID) {
	p := &o.w.m.peers[id]
	if p.st != stateIdle {
		return
	}
	if p.pool != nil {
		o.t.Fatalf("slot %d is idle and still holds a pool buffer of %d", id, cap(p.pool))
	}
	delete(o.refs, id)
}

// runPoolOracle drives one churnWorld under the oracle: a handful of
// owners placing one block per round, so pools fill to their
// TotalBlocks cap.
func runPoolOracle(t *testing.T, seed uint64, pol selection.Policy, planned, transfers bool) *poolOracle {
	spec := worldSpec{
		seed: seed, peers: 48, rounds: 120, owners: 6, quota: 24,
		params: Params{
			TotalBlocks:          12,
			DataBlocks:           4,
			RepairThreshold:      8,
			PoolSamplePerRound:   40,
			UploadBudgetPerRound: 1,
		},
		planned: planned, transfers: transfers,
	}
	o := &poolOracle{t: t, refs: map[overlay.PeerID]*refPool{}}
	o.w = newChurnWorld(spec, pol, func(e *worldEnv) Env {
		o.inner = e
		return o
	})
	o.w.run(t, o.turn, o.episodeMayHaveEnded)
	return o
}

// TestPoolDedupMatchesMapOracle runs the oracle over instant and metered
// placement, through Step and through PlanStep + ApplyPlan, and checks
// that the runs reached the cases the marks could get wrong. The twelve
// seeds negotiate under the paper's policy at a short horizon; every
// other policy then gets a world each.
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
			policies := oraclePolicies(t)
			for seed := uint64(1); seed <= 12; seed++ {
				o := runPoolOracle(t, 100*seed, policies["legacy-age"](), tc.planned, tc.transfers)
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
			for name, makePolicy := range policies {
				if o := runPoolOracle(t, 77, makePolicy(), tc.planned, tc.transfers); o.accepted == 0 {
					t.Fatalf("%s: no candidate accepted", name)
				}
			}
		})
	}
}
