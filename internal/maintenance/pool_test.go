package maintenance

import (
	"sync"
	"testing"
	"unsafe"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// TestPoolEntrySize bounds the candidate-pool entry: every slot holds a
// pool of up to PoolSamplePerRound of them at once during the initial
// upload of a whole population.
func TestPoolEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(poolEntry{}); got > 24 {
		t.Fatalf("poolEntry is %d bytes, want at most 24", got)
	}
}

// gatherPool steps an included peer whose archive is undecodable until
// its stalled repair has pooled candidates, and returns the buffer it
// holds.
func gatherPool(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) *poolEntry {
	t.Helper()
	r := rng.New(11)
	for _, h := range led.Hosts(id, nil)[:5] {
		led.SetOnline(h, false) // 3 of 8 visible: below k = 4
	}
	if res := m.Step(r, id); res.Outcome != OutcomeStalled {
		t.Fatalf("outcome %v, want stalled", res.Outcome)
	}
	if m.PoolSize(id) == 0 || m.PoolCap(id) == 0 {
		t.Fatalf("a stalled repair must gather candidates: pool %d, capacity %d", m.PoolSize(id), m.PoolCap(id))
	}
	return unsafe.SliceData(m.peers[id].pool)
}

// TestPoolBufferLeavesWithEpisode holds the ownership rule: a slot has
// a pool buffer only while its pool holds candidates, and never once
// its episode is over. Every way an episode can end — completion,
// cancellation, the occupant's death, the archive's loss (sequential
// and shard-local halves) — hands the buffer back, and the next step
// anywhere picks it up from the cache instead of allocating.
func TestPoolBufferLeavesWithEpisode(t *testing.T) {
	ends := []struct {
		name string
		end  func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID)
	}{
		{"finish", func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) {
			// One more host up makes the archive decodable: the repair
			// decodes, writes off the offline partners and re-uploads.
			led.SetOnline(led.Hosts(id, nil)[0], true)
			r := rng.New(11)
			for i := 0; i < 30; i++ {
				if m.Step(r, id).Outcome == OutcomeRepaired {
					return
				}
			}
			t.Fatal("repair never completed")
		}},
		{"cancel", func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) {
			for _, h := range led.Hosts(id, nil) {
				led.SetOnline(h, true)
			}
			if res := m.Step(rng.New(11), id); res.Outcome != OutcomeCanceled {
				t.Fatalf("outcome %v, want canceled", res.Outcome)
			}
		}},
		{"Reset", func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) {
			led.RemovePeer(id)
			m.Reset(id)
		}},
		{"ResetArchive", func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) {
			m.ResetArchive(id)
		}},
		{"ResetArchiveLocal", func(t *testing.T, m *Maintainer, led *overlay.Ledger, id overlay.PeerID) {
			m.ResetArchiveLocal(id)
			led.DropOwner(id)
		}},
	}
	for _, tc := range ends {
		t.Run(tc.name, func(t *testing.T) {
			params := testParams()
			params.UploadBudgetPerRound = 1 // uploads span rounds
			m, led, _, r := harness(t, 40, params)
			id, other := overlay.PeerID(0), overlay.PeerID(1)
			completeInitial(t, m, r, id)
			if m.PoolCap(id) != 0 {
				t.Fatalf("a completed initial upload left a pool buffer of %d", m.PoolCap(id))
			}
			held := gatherPool(t, m, led, id)
			tc.end(t, m, led, id)
			if m.PoolCap(id) != 0 || m.PoolSize(id) != 0 {
				t.Fatalf("slot still holds a pool buffer of %d (%d pooled) after its episode ended", m.PoolCap(id), m.PoolSize(id))
			}
			if err := led.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			// The released buffer serves the next step that pools
			// candidates, whichever slot takes it.
			m.Step(r, other)
			if got := unsafe.SliceData(m.peers[other].pool); got != held {
				t.Fatalf("the next episode runs on buffer %p, want the released %p", got, held)
			}
		})
	}
}

// TestPoolCacheIsBounded starts more simultaneous episodes than the
// cache may keep and ends them all: the cache keeps its limit and drops
// the rest, which is what stops the initial upload of a whole population
// from pinning one buffer per slot for the rest of the run.
func TestPoolCacheIsBounded(t *testing.T) {
	params := testParams()
	params.UploadBudgetPerRound = 1 // episodes span rounds, so they overlap
	const peers = 3 * minFreePools
	m, _, _, r := harness(t, peers, params)
	for id := overlay.PeerID(0); id < peers; id++ {
		m.Step(r, id)
		if m.PoolCap(id) == 0 {
			t.Fatalf("slot %d is mid-upload without a pool buffer", id)
		}
	}
	for id := overlay.PeerID(0); id < peers; id++ {
		m.Reset(id)
	}
	if got := len(m.pools.free); got != minFreePools {
		t.Fatalf("cache keeps %d buffers after %d episodes ended, want its limit %d", got, peers, minFreePools)
	}
}

// TestPoolCacheConcurrentUse takes, grows and returns buffers from many
// goroutines at once, as concurrent PlanSteps and the shard-parallel
// walk do: under -race this is the cache's own data-race check, and
// every buffer must come back empty and unshared.
func TestPoolCacheConcurrentUse(t *testing.T) {
	c := poolCache{limit: 4}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				pool := c.grow(nil, 8)
				if len(pool) != 0 {
					t.Errorf("goroutine %d got a buffer holding %d entries", g, len(pool))
					return
				}
				for k := 0; k < 8; k++ {
					pool = append(pool, poolEntry{score: float64(g)})
				}
				pool = c.grow(pool, 16)
				for _, e := range pool {
					if e.score != float64(g) {
						t.Errorf("goroutine %d found goroutine %v's entry in its pool", g, e.score)
						return
					}
				}
				c.put(pool)
			}
		}(g)
	}
	wg.Wait()
	if len(c.free) > c.limit {
		t.Fatalf("cache holds %d buffers, limit %d", len(c.free), c.limit)
	}
}

// TestRefreshPoolAcceptingAllocatesNothing pins the candidate loop's
// allocation count at zero on a refresh that negotiates with candidates,
// accepts some and scores them, under the paper's policy (an age table
// over the function) and under one that accepts everyone (the one-entry
// table): neither an age nor a View may reach the heap.
func TestRefreshPoolAcceptingAllocatesNothing(t *testing.T) {
	for _, pol := range []selection.Policy{
		mustParse(t, "age:L=100"),
		mustParse(t, "youngest-first"),
	} {
		const peers = 64
		led := overlay.NewLedger(peers, 64)
		env := &fakeEnv{ages: make([]int64, peers), n: peers}
		for i := range env.ages {
			env.ages[i] = int64(3 * i)
		}
		m := New(testParams(), led, overlay.NewTable(peers), pol, env)
		r := rng.New(3)
		owner := overlay.PeerID(20)
		p := &m.peers[owner]
		m.refreshPool(r, owner, p, &m.own) // takes the pool buffer
		accepted := 0
		allocs := testing.AllocsPerRun(200, func() {
			p.pool = p.pool[:0]
			m.refreshPool(r, owner, p, &m.own)
			accepted += len(p.pool)
		})
		if accepted == 0 {
			t.Fatalf("%s: no candidate accepted: the refreshes exercised nothing", pol.Name())
		}
		if allocs != 0 {
			t.Errorf("%s: an accepting refresh allocates %v times, want 0", pol.Name(), allocs)
		}
	}
}

func mustParse(t *testing.T, spec string) selection.Policy {
	t.Helper()
	pol, err := selection.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}
