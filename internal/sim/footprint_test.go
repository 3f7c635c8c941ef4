package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// TestPeerSize keeps the engine-side slot record at one cache line.
func TestPeerSize(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 64 {
		t.Fatalf("sim.peer is %d bytes, want at most 64", got)
	}
}

// slotBudget is what one simulated peer may cost in live heap at the
// paper's parameters (n = 256, quota 384) once the population has
// uploaded and run a 90-day window of sessions: the 3425 B this test
// measures under the paper's age policy, which keeps no availability
// history, plus 15 %. ARCHITECTURE.md's "Memory per slot" table breaks
// the paper-scale figure down.
const slotBudget = 3939

// historySlotBudget is the same under the monitored-availability
// policy, whose 90-day histories fill a window: the budget of when every
// run kept histories (5540 B measured under the age policy, plus 15 %),
// kept so that the history layout stays held to it. This run reads
// 5386 B.
const historySlotBudget = 6371

// TestSlotFootprint runs the default configuration at a few thousand
// peers through the initial upload and a whole monitoring window of
// sessions, and holds the live heap per slot to its budget, with and
// without availability histories. Per-slot memory must follow what a
// slot holds — placements, transitions inside the window when a history
// is read, a candidate pool while an episode is in flight — not the
// worst case of what it might: before that was so, the same measurement
// read 23 KiB.
func TestSlotFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3000 peers for a 90-day window")
	}
	for _, tc := range []struct {
		strategy string
		budget   int64
	}{
		{"age", slotBudget},
		{"monitored-availability", historySlotBudget},
	} {
		t.Run(tc.strategy, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumPeers = 3000
			cfg.Rounds = cfg.AcceptHorizon + 100
			cfg.Seed = 5
			cfg.StrategySpec = tc.strategy
			slotFootprint(t, cfg, tc.budget)
		})
	}
}

// slotFootprint runs cfg to its end and holds the live heap it leaves
// per slot to budget, saying where the bytes are when it is over.
func slotFootprint(t *testing.T, cfg Config, budget int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(s) // the heap is read while the simulation is live
	for s.StepRound() {
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	slots := cfg.NumPeers
	perSlot := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(slots)
	t.Logf("%d B of live heap per slot after %d rounds (budget %d)", perSlot, cfg.Rounds, budget)
	if perSlot <= budget {
		return
	}

	// Over budget: say where the bytes are.
	var transitions, pooled, episodes int
	for id := range s.hist {
		transitions += s.hist[id].Transitions()
	}
	for id := 0; id < slots; id++ {
		if c := s.maint.PoolCap(overlay.PeerID(id)); c > 0 {
			pooled += c
			episodes++
		}
	}
	per := func(total int) float64 { return float64(total) / float64(slots) }
	t.Errorf("live heap per slot is %d B, budget %d B", perSlot, budget)
	t.Logf("  ledger reservation        %8.0f B  (%d placements + %d host entries, 4 B each: peer id and list index packed in a uint32)",
		float64(4*(cfg.TotalBlocks+int(cfg.Quota))), cfg.TotalBlocks, cfg.Quota)
	t.Logf("  placements in use         %8.0f B  (%d placed, both directions)",
		per(8*s.led.TotalPlacements()), s.led.TotalPlacements())
	t.Logf("  history transitions       %8.0f B  (%d stored, 8 B each; rings are the next power of four from 16)",
		per(8*transitions), transitions)
	t.Logf("  history headers           %8.0f B  (%d kept)",
		per(len(s.hist)*int(unsafe.Sizeof(monitor.IntervalHistory{}))), len(s.hist))
	t.Logf("  candidate pools           %8.0f B  (%d episodes in flight, 24 B per entry of capacity)",
		per(24*pooled), episodes)
	t.Logf("  peer record, timer        %8d B",
		unsafe.Sizeof(peer{})+unsafe.Sizeof(s.sched[0]))
	t.Logf("  slot rng stream           %8d B", unsafe.Sizeof(s.streams[0]))
}

// TestInitialUploadAllocation holds the rounds in which a whole
// population uploads at once — every slot an actor, millions of planned
// ops, a pool buffer per owner — to what they must allocate: one op log
// sized once (4 B an op, at most 129 ops an owner here) and a bounded
// cache of pool buffers, not a log regrown by append nor a 3 KiB buffer
// held by every owner from its plan to its apply (which read 3.4 KiB a
// peer). After that a round allocates only what grows with the data, and
// the collector has no reason to run.
func TestInitialUploadAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 5000 peers")
	}
	cfg := DefaultConfig()
	cfg.NumPeers = 5000
	cfg.Rounds = 110
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var start, uploaded, end runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&start)
	for i := 0; i < 10; i++ {
		s.StepRound()
	}
	runtime.ReadMemStats(&uploaded)
	included := 0
	for id := 0; id < cfg.NumPeers; id++ {
		if s.maint.Included(overlay.PeerID(id)) {
			included++
		}
	}
	if included < cfg.NumPeers/2 {
		t.Fatalf("%d of %d peers uploaded in ten rounds: the run exercised nothing", included, cfg.NumPeers)
	}
	for s.StepRound() {
	}
	runtime.ReadMemStats(&end)
	perPeer := (uploaded.TotalAlloc - start.TotalAlloc) / uint64(cfg.NumPeers)
	t.Logf("initial upload: %d B allocated per peer; rounds 10-110: %d objects a round; %d GC cycles",
		perPeer, (end.Mallocs-uploaded.Mallocs)/100, end.NumGC-start.NumGC)
	if perPeer > 768 {
		t.Errorf("the initial upload allocated %d B per peer, want at most 768", perPeer)
	}
	if perRound := (end.Mallocs - uploaded.Mallocs) / 100; perRound > 8 {
		t.Errorf("rounds 10-110 allocated %d objects a round, want under 8 (histories and samples growing)", perRound)
	}
	if end.NumGC != start.NumGC {
		t.Errorf("%d GC cycles in 110 rounds of a %d-peer run, want none", end.NumGC-start.NumGC, cfg.NumPeers)
	}
}

// callers records which goroutines called in, by runtime.Stack's header.
type callers struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *callers) here() {
	var buf [32]byte
	id := string(buf[:runtime.Stack(buf[:], false)])
	id = id[:strings.IndexByte(id, '[')]
	c.mu.Lock()
	c.seen[id]++
	c.mu.Unlock()
}

// spyAvail is the default session model, reporting the walk's goroutine.
type spyAvail struct {
	churn.AvailabilityModel
	walk *callers
}

func (a spyAvail) SessionLength(r *rng.Rand, avail float64, online bool, round int64) int64 {
	a.walk.here()
	return a.AvailabilityModel.SessionLength(r, avail, online, round)
}

// spyPolicy is the age policy reporting the planner's goroutine.
type spyPolicy struct {
	selection.Policy
	plan *callers
}

func (p spyPolicy) Score(ctx selection.Context, v selection.View) float64 {
	p.plan.here()
	return p.Policy.Score(ctx, v)
}

// TestOneShardRunsOnTheCaller: at one shard the walk and the plan run on
// the goroutine that called StepRound, with no fan-out to pay for. At
// two shards the walk leaves it.
func TestOneShardRunsOnTheCaller(t *testing.T) {
	run := func(shards int, spyPlan bool) (walk, plan, me *callers) {
		walk, plan, me = &callers{seen: map[string]int{}}, &callers{seen: map[string]int{}}, &callers{seen: map[string]int{}}
		cfg := digestConfig()
		cfg.Shards = shards
		session, err := churn.ParseAvailability("session")
		if err != nil {
			t.Fatal(err)
		}
		cfg.avail = spyAvail{session, walk}
		if spyPlan {
			pol, err := selection.ParseWith("age", selection.Defaults{Horizon: cfg.AcceptHorizon})
			if err != nil {
				t.Fatal(err)
			}
			cfg.policy = spyPolicy{pol, plan}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		me.here()
		for s.StepRound() {
		}
		return walk, plan, me
	}
	walk, plan, me := run(1, true)
	for name, c := range map[string]*callers{"walk": walk, "plan": plan} {
		if len(c.seen) != 1 {
			t.Errorf("one shard: the %s ran on %d goroutines, want the caller's alone", name, len(c.seen))
		}
		for id := range me.seen {
			if c.seen[id] == 0 {
				t.Errorf("one shard: the %s never ran on the calling goroutine", name)
			}
		}
	}
	if walk, _, me := run(2, false); len(walk.seen) < 2 {
		t.Errorf("two shards: the walk ran on %d goroutine(s) (caller %v): the spy sees no fan-out", len(walk.seen), me.seen)
	}
}

// completionProbe checks, when a round reports its first completed
// upload — the first plan has just been applied, every other still
// waits — that no owner about to report one holds a pool buffer: a plan
// that completes hands its leftover candidates back at plan time.
type completionProbe struct {
	BaseProbe
	s         *Simulation
	round     int64
	held      []bool
	completed int
	stillHeld int
}

func (p *completionProbe) ProbeEvents() EventSet { return EventRepair }

func (p *completionProbe) OnRepair(e RepairEvent) {
	p.completed++
	if e.Round != p.round || p.held == nil {
		p.round = e.Round
		p.held = make([]bool, p.s.cfg.NumPeers)
		for id := range p.held {
			p.held[id] = p.s.maint.PoolCap(overlay.PeerID(id)) > 0
		}
		return
	}
	if p.held[e.Peer] {
		p.stillHeld++
	}
}

// TestPoolBuffersFollowEpisodes runs populations at Shards = 4 and
// checks after every round that a slot holds a candidate-pool buffer
// only inside an episode and only while its pool holds candidates.
// Buffers are taken and returned inside concurrent PlanSteps, slots
// reset inside the shard-parallel walk, and under bandwidth scheduling
// episodes end in the sequential transfer drain: all of them go through
// the Maintainer's one buffer cache, which is what the race detector is
// here to watch.
func TestPoolBuffersFollowEpisodes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bandwidth string
	}{{"instant", ""}, {"bandwidth", "skewed"}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := digestConfig()
			cfg.NumPeers = 1200
			cfg.Rounds = 160
			cfg.Shards = 4
			cfg.BandwidthSpec = tc.bandwidth
			cfg.Shocks = []ShockSpec{
				{Name: "blackout", Round: 60, Fraction: 0.6, Outage: 24},
				{Name: "regional-kill", Rate: 0.02, Fraction: 0.3, Regions: 4, Kill: true},
			}
			completions := &completionProbe{}
			if tc.bandwidth == "" { // metered uploads complete in the transfer drain
				cfg.Probes = []Probe{completions}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			completions.s = s
			slots := cfg.NumPeers + len(cfg.Observers)
			held := 0
			for s.StepRound() {
				for id := overlay.PeerID(0); int(id) < slots; id++ {
					c := s.maint.PoolCap(id)
					if c > 0 && (!s.maint.Repairing(id) || s.maint.PoolSize(id) == 0) {
						t.Fatalf("round %d: slot %d holds a pool buffer of %d with %d candidates pooled (in an episode: %v)",
							s.round-1, id, c, s.maint.PoolSize(id), s.maint.Repairing(id))
					}
					if c > 0 {
						held++
					}
				}
			}
			if held == 0 {
				t.Fatal("no slot ever held a pool buffer: the run exercised nothing")
			}
			if tc.bandwidth == "" && (completions.completed < cfg.NumPeers || completions.stillHeld > 0) {
				t.Fatalf("%d of %d completing owners held a pool buffer between their plan and its apply",
					completions.stillHeld, completions.completed)
			}
		})
	}
}
