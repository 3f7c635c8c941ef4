package maintenance

import (
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// fakeEnv is a minimal maintenance.Env: static ages, the first n slots
// as candidates, a fixed round.
type fakeEnv struct {
	ages  []int64
	n     int
	round int64
	joins []int64
}

func (f *fakeEnv) View(id overlay.PeerID) selection.View {
	return selection.View{Observed: selection.Observed{Age: f.ages[id]}}
}

func (f *fakeEnv) Joins() []int64 { return joinsOf(f.ages[:f.n], f.round, &f.joins) }

// joinsOf turns the candidates' ages at round into the join rounds
// Env.Joins reports, in buf.
func joinsOf(ages []int64, round int64, buf *[]int64) []int64 {
	*buf = (*buf)[:0]
	for _, a := range ages {
		*buf = append(*buf, round-a)
	}
	return *buf
}

func (f *fakeEnv) Population() int { return f.n }

func (f *fakeEnv) Round() int64 { return f.round }

// testParams: tiny archive so pools fill fast.
func testParams() Params {
	return Params{
		TotalBlocks:        8,
		DataBlocks:         4,
		RepairThreshold:    5,
		PoolSamplePerRound: 32,
	}
}

// harness builds a maintainer over peers slots with equal ages.
func harness(t *testing.T, peers int, params Params) (*Maintainer, *overlay.Ledger, *overlay.Table, *rng.Rand) {
	t.Helper()
	led := overlay.NewLedger(peers, 64)
	led.SetStrict(true)
	tab := overlay.NewTable(peers)
	env := &fakeEnv{ages: make([]int64, peers), n: peers}
	m := New(params, led, tab, mustParse(t, "age:L=100"), env)
	return m, led, tab, rng.New(7)
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.DataBlocks = 0 },
		func(p *Params) { p.TotalBlocks = p.DataBlocks },
		func(p *Params) { p.RepairThreshold = p.DataBlocks - 1 },
		func(p *Params) { p.RepairThreshold = p.TotalBlocks + 1 },
		func(p *Params) { p.PoolSamplePerRound = 0 },
	}
	for i, mod := range cases {
		p := testParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestInitialBackupFlow(t *testing.T) {
	m, led, _, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	if m.Included(id) {
		t.Fatal("fresh peer must not be included")
	}
	if !m.WantsStep(id) {
		t.Fatal("fresh peer must want a step")
	}
	// One step should fill the pool (32 samples for 8 slots among 30
	// online peers) and complete the upload.
	var res StepResult
	for i := 0; i < 10 && res.Outcome != OutcomeInitialDone; i++ {
		res = m.Step(r, id)
	}
	if res.Outcome != OutcomeInitialDone {
		t.Fatalf("initial backup did not complete: %v", res.Outcome)
	}
	if res.Uploaded != 8 {
		t.Fatalf("uploaded %d blocks, want 8", res.Uploaded)
	}
	if !m.Included(id) {
		t.Fatal("peer must be included after initial upload")
	}
	if led.Alive(id) != 8 || led.Visible(id) != 8 {
		t.Fatalf("alive/visible = %d/%d, want 8/8", led.Alive(id), led.Visible(id))
	}
	if m.WantsStep(id) {
		t.Fatal("healthy included peer must not want steps")
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func completeInitial(t *testing.T, m *Maintainer, r *rng.Rand, id overlay.PeerID) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if m.Step(r, id).Outcome == OutcomeInitialDone {
			return
		}
	}
	t.Fatalf("peer %d never completed initial backup", id)
}

func TestRepairTriggerAndExecution(t *testing.T) {
	m, led, _, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	// Kill hosts until visible drops below threshold (5).
	hosts := led.Hosts(id, nil)
	led.RemoveHost(hosts[0])
	led.RemoveHost(hosts[1])
	led.RemoveHost(hosts[2])
	led.RemoveHost(hosts[3])
	if led.Visible(id) != 4 {
		t.Fatalf("visible = %d, want 4", led.Visible(id))
	}
	if !m.WantsStep(id) {
		t.Fatal("peer below threshold must want a step")
	}
	var res StepResult
	for i := 0; i < 10 && res.Outcome != OutcomeRepaired; i++ {
		res = m.Step(r, id)
	}
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("repair did not complete: %v", res.Outcome)
	}
	if res.Uploaded != 4 {
		t.Fatalf("uploaded %d, want 4", res.Uploaded)
	}
	if led.Visible(id) != 8 {
		t.Fatalf("visible after repair = %d, want 8", led.Visible(id))
	}
	if m.Repairing(id) {
		t.Fatal("repair state must clear")
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairStallsBelowK(t *testing.T) {
	m, led, _, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	// Take 5 hosts offline: visible = 3 < k = 4, but alive = 8 >= k.
	hosts := led.Hosts(id, nil)
	for _, h := range hosts[:5] {
		led.SetOnline(h, false)
	}
	if led.Visible(id) != 3 {
		t.Fatalf("visible = %d, want 3", led.Visible(id))
	}
	res := m.Step(r, id)
	if res.Outcome != OutcomeStalled {
		t.Fatalf("outcome = %v, want stalled", res.Outcome)
	}
	if m.LostArchive(id) {
		t.Fatal("stall is not loss: blocks are alive")
	}
	// Partners return: repair can proceed.
	for _, h := range hosts[:5] {
		led.SetOnline(h, true)
	}
	// Now visible = 8 >= threshold: the pending repair aborts.
	res = m.Step(r, id)
	if res.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v, want canceled", res.Outcome)
	}
}
func TestRepairDropsOfflinePartners(t *testing.T) {
	m, led, _, r := harness(t, 40, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	hosts := led.Hosts(id, nil)
	// 3 partners die, 1 goes offline: visible = 4 < 5 triggers; at
	// execution the offline partner is dropped and 4 blocks uploaded.
	led.RemoveHost(hosts[0])
	led.RemoveHost(hosts[1])
	led.RemoveHost(hosts[2])
	led.SetOnline(hosts[3], false)
	var res StepResult
	for i := 0; i < 10 && res.Outcome != OutcomeRepaired; i++ {
		res = m.Step(r, id)
	}
	if res.Outcome != OutcomeRepaired {
		t.Fatalf("repair did not complete: %v", res.Outcome)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the offline partner)", res.Dropped)
	}
	if res.Uploaded != 4 {
		t.Fatalf("uploaded = %d, want 4", res.Uploaded)
	}
	if led.HasPlacement(id, hosts[3]) {
		t.Fatal("offline partner must be dropped")
	}
	if led.Alive(id) != 8 || led.Visible(id) != 8 {
		t.Fatalf("alive/visible = %d/%d, want 8/8", led.Alive(id), led.Visible(id))
	}
}
func TestLossAndArchiveReset(t *testing.T) {
	m, led, _, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	hosts := led.Hosts(id, nil)
	// Kill 5 of 8: alive = 3 < k = 4 -> lost.
	for _, h := range hosts[:5] {
		led.RemoveHost(h)
	}
	if !m.LostArchive(id) {
		t.Fatal("archive must be lost")
	}
	m.ResetArchive(id)
	if m.Included(id) {
		t.Fatal("reset peer must not be included")
	}
	if led.Alive(id) != 0 {
		t.Fatal("surviving useless blocks must be released")
	}
	if m.LostArchive(id) {
		t.Fatal("not-included peer cannot lose an archive")
	}
	// Re-injection works.
	completeInitial(t, m, r, id)
	if led.Alive(id) != 8 {
		t.Fatal("re-injection failed")
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOldestFirstSelection(t *testing.T) {
	// With the age strategy, the repair must pick the oldest available
	// candidates. Give half the population age 100, half age 0, and a
	// deficit small enough that only elders should be chosen.
	led := overlay.NewLedger(40, 64)
	led.SetStrict(true)
	tab := overlay.NewTable(40)
	ages := make([]int64, 40)
	for i := 20; i < 40; i++ {
		ages[i] = 100
	}
	env := &fakeEnv{ages: ages, n: 40}
	p := testParams()
	m := New(p, led, tab, mustParse(t, "age:L=100"), env)
	r := rng.New(3)
	// Owner is peer 0 (age 0). Elders accept newcomers with probability
	// 1/L = 1/100, so sampling needs patience; pool building handles it.
	id := overlay.PeerID(0)
	var res StepResult
	for i := 0; i < 2000 && res.Outcome != OutcomeInitialDone; i++ {
		res = m.Step(r, id)
	}
	if res.Outcome != OutcomeInitialDone {
		t.Fatal("initial backup never completed")
	}
	// The pool mixes young (always agree) and old (rarely agree)
	// candidates; selection must still prefer whatever elders made it
	// into the pool. We check the chosen set is not all-young.
	hosts := led.Hosts(id, nil)
	elders := 0
	for _, h := range hosts {
		if ages[h] == 100 {
			elders++
		}
	}
	// The pool saturates with young peers quickly (they always agree);
	// elders trickle in at 1/100 per contact. The ranking must place
	// every pooled elder ahead of young candidates; over the pool
	// build-up at least one elder virtually always lands.
	if elders == 0 {
		t.Log("warning: no elders chosen; acceptable only if none entered the pool")
	}
	// Stronger check: rank a synthetic pool directly.
	age := mustParse(t, "age:L=100")
	if age.Score(selection.Context{}, selection.View{Observed: selection.Observed{Age: 100}}) <=
		age.Score(selection.Context{}, selection.View{}) {
		t.Fatal("age strategy must rank elders above newcomers")
	}
}

func TestQuotaRespected(t *testing.T) {
	// Tiny quota: two hosts can absorb only part of the demand.
	led := overlay.NewLedger(10, 2) // quota 2 per host
	tab := overlay.NewTable(10)
	env := &fakeEnv{ages: make([]int64, 10), n: 10}
	p := Params{TotalBlocks: 4, DataBlocks: 2, RepairThreshold: 3, PoolSamplePerRound: 64}
	m := New(p, led, tab, mustParse(t, "random"), env)
	r := rng.New(5)
	// 4 owners each place 4 blocks: demand 16 <= capacity 9*2=18 per
	// owner's view; complete all.
	for id := overlay.PeerID(0); id < 4; id++ {
		var res StepResult
		for i := 0; i < 200 && res.Outcome != OutcomeInitialDone; i++ {
			res = m.Step(r, id)
		}
		if res.Outcome != OutcomeInitialDone {
			t.Fatalf("peer %d: initial backup stuck (quota deadlock?)", id)
		}
	}
	for h := overlay.PeerID(0); h < 10; h++ {
		if led.MeteredHosted(h) > 2 {
			t.Fatalf("host %d exceeds quota: %d", h, led.MeteredHosted(h))
		}
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmeteredObserverBypassesQuota: an observer's planned placement on
// a host with no free quota lands. The population is so small that the
// observer cannot complete without three hosts that are full — planning
// marks them placeable for a quota-exempt owner, and the apply's quota
// re-check must exempt it too.
func TestUnmeteredObserverBypassesQuota(t *testing.T) {
	led := overlay.NewLedger(6, 1)
	tab := overlay.NewTable(6)
	env := &fakeEnv{ages: make([]int64, 6), n: 5} // observers sample only peers 0..4
	p := Params{TotalBlocks: 4, DataBlocks: 2, RepairThreshold: 3, PoolSamplePerRound: 64}
	m := New(p, led, tab, mustParse(t, "random"), env)
	m.SetUnmetered(5, true)
	r := rng.New(6)
	// Peer 0's backup takes the one unit of quota of each of peers 1..4.
	var res StepResult
	for i := 0; i < 100 && res.Outcome != OutcomeInitialDone; i++ {
		res = m.Step(r, 0)
	}
	if res.Outcome != OutcomeInitialDone {
		t.Fatal("metered peer stuck")
	}
	for h := overlay.PeerID(1); h <= 4; h++ {
		if led.FreeQuota(h) != 0 {
			t.Fatalf("host %d still has quota: the observer would not need a full host", h)
		}
	}
	// The observer (slot 5) needs four of the five, three of them full.
	res = StepResult{}
	for i := 0; i < 100 && res.Outcome != OutcomeInitialDone; i++ {
		res = m.Step(r, 5)
	}
	if res.Outcome != OutcomeInitialDone || led.Alive(5) != 4 {
		t.Fatalf("unmetered observer blocked by quota: %v with %d of 4 blocks placed", res.Outcome, led.Alive(5))
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolPrunesStaleCandidates(t *testing.T) {
	m, led, tab, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	// Force a repair need.
	hosts := led.Hosts(id, nil)
	for _, h := range hosts[:4] {
		led.RemoveHost(h)
	}
	// Build the pool but prevent execution by pushing everything
	// offline right after the first step... simpler: step once to build
	// pool, then invalidate pooled candidates by bumping all other
	// slots' generations and killing them.
	_ = m.Step(r, id) // may complete; if so, re-force
	if led.Visible(id) == 8 {
		for _, h := range led.Hosts(id, nil)[:4] {
			led.RemoveHost(h)
		}
		// Build pool fresh with everyone else offline so execution
		// cannot happen.
	}
	// Take all non-partners offline so the pool cannot act, then bring
	// them back dead (bumped): entries must be pruned, not used.
	for c := overlay.PeerID(1); c < 30; c++ {
		if !led.HasPlacement(id, c) {
			led.SetOnline(c, false)
		}
	}
	res := m.Step(r, id)
	if res.Outcome == OutcomeRepaired {
		t.Fatal("repair should be blocked with candidates offline")
	}
	for c := overlay.PeerID(1); c < 30; c++ {
		if !led.HasPlacement(id, c) {
			led.RemovePeer(c)
			tab.Bump(c)
			led.SetOnline(c, true)
		}
	}
	// Stale refs (old generation) must not be selected; the repair
	// completes only with freshly pooled candidates.
	var ok bool
	for i := 0; i < 50; i++ {
		if m.Step(r, id).Outcome == OutcomeRepaired {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("repair never completed after candidate churn")
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsState(t *testing.T) {
	m, led, _, r := harness(t, 30, testParams())
	id := overlay.PeerID(0)
	completeInitial(t, m, r, id)
	led.RemovePeer(id)
	m.Reset(id)
	if m.Included(id) || m.Repairing(id) || m.PoolSize(id) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{OutcomeNone, OutcomeRepaired, OutcomeInitialDone, OutcomeStalled, OutcomeCanceled} {
		if o.String() == "" {
			t.Fatal("outcome must format")
		}
	}
	if Outcome(99).String() == "" {
		t.Fatal("unknown outcome must format")
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	led := overlay.NewLedger(4, 4)
	tab := overlay.NewTable(4)
	env := &fakeEnv{ages: make([]int64, 4), n: 4}
	bad := testParams()
	bad.DataBlocks = 0
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid params must panic")
		}
	}()
	New(bad, led, tab, mustParse(t, "random"), env)
}

func TestNewPanicsOnSizeMismatch(t *testing.T) {
	led := overlay.NewLedger(4, 4)
	tab := overlay.NewTable(5)
	env := &fakeEnv{ages: make([]int64, 5), n: 4}
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched sizes must panic")
		}
	}()
	New(testParams(), led, tab, mustParse(t, "random"), env)
}
