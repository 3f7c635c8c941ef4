package sim

// Scenario support: correlated-failure shocks and trace replay. The
// paper evaluates against i.i.d. profile churn only; the heterogeneity
// literature (Skowron & Rzadca; Dell'Amico et al.) shows that diurnal
// cycles and correlated failures materially change redundancy and
// repair outcomes, so the engine accepts them as first-class workload
// modifiers:
//
//   - diurnal availability is Config.AvailSpec "diurnal:AMP", a model
//     whose session lengths follow the round each session starts in;
//   - shocks are Config.Shocks, applied at the top of each round before
//     churn and maintenance, and reported to probes via OnShock;
//   - trace replay is Config.Replay: the recorded churn stream drives
//     membership and sessions deterministically instead of the profile
//     sampler, which is what makes paired comparisons (same churn,
//     different strategy) possible.

import (
	"fmt"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/overlay"
)

// ShockSpec schedules one correlated-failure event class: a power or
// ISP outage that takes down many peers in the same round. A spec
// fires either deterministically (at Round) or stochastically (each
// round with probability Rate; Rate > 0 takes precedence over Round).
//
// When it fires, the shock selects a victim pool — the whole population
// or one of Regions contiguous slots ranges, modelling geographic
// correlation — and hits each pool member independently with
// probability Fraction.
type ShockSpec struct {
	// Name labels the shock in events and reports.
	Name string
	// Round is the scheduled firing round; used when Rate is zero.
	Round int64
	// Rate, when positive, fires the shock stochastically with this
	// per-round probability instead of the schedule.
	Rate float64
	// Fraction in (0, 1] is the per-peer hit probability within the
	// victim pool.
	Fraction float64
	// Regions > 1 partitions the population into that many contiguous
	// slot ranges and each firing hits one uniformly chosen region;
	// 0 or 1 means the pool is the whole population.
	Regions int
	// Kill makes victims depart permanently (their blocks are lost and
	// the slot is re-filled, the paper's departure model); otherwise
	// victims only go offline for Outage rounds.
	Kill bool
	// Outage is how many rounds offline victims stay down; 0 defaults
	// to one day. Ignored when Kill is set.
	Outage int64
}

// Validate checks one shock spec.
func (sp ShockSpec) Validate() error {
	if sp.Fraction <= 0 || sp.Fraction > 1 {
		return fmt.Errorf("sim: shock %q fraction %v outside (0,1]", sp.Name, sp.Fraction)
	}
	if sp.Rate < 0 || sp.Rate >= 1 {
		return fmt.Errorf("sim: shock %q rate %v outside [0,1)", sp.Name, sp.Rate)
	}
	if sp.Rate == 0 && sp.Round < 0 {
		return fmt.Errorf("sim: shock %q scheduled at negative round %d", sp.Name, sp.Round)
	}
	if sp.Regions < 0 {
		return fmt.Errorf("sim: shock %q has negative region count %d", sp.Name, sp.Regions)
	}
	if sp.Outage < 0 {
		return fmt.Errorf("sim: shock %q has negative outage %d", sp.Name, sp.Outage)
	}
	return nil
}

// stepShocks fires every due shock at the top of a round, before churn
// and maintenance, so the same round's repairs already see the damage.
// Shocks consume randomness from the run's generator (unlike probes),
// so configuring them changes the trajectory — but identically for
// identical seeds.
func (s *Simulation) stepShocks(round int64) {
	for i := range s.cfg.Shocks {
		sp := &s.cfg.Shocks[i]
		var fire bool
		if sp.Rate > 0 {
			fire = s.r.Bool(sp.Rate)
		} else {
			fire = round == sp.Round
		}
		if !fire {
			continue
		}
		lo, hi := 0, s.cfg.NumPeers
		if sp.Regions > 1 {
			reg := s.r.Intn(sp.Regions)
			lo = s.cfg.NumPeers * reg / sp.Regions
			hi = s.cfg.NumPeers * (reg + 1) / sp.Regions
		}
		victims := 0
		for id := lo; id < hi; id++ {
			if sp.Fraction < 1 && !s.r.Bool(sp.Fraction) {
				continue
			}
			p := &s.peers[id]
			if sp.Kill {
				if p.death <= round {
					continue // already departing this round
				}
				p.death = round // replaced by this round's walk
				s.scheduleEarlier(overlay.PeerID(id), round)
				victims++
				continue
			}
			if !p.online {
				continue // a power cut cannot take down an offline peer
			}
			s.setOnline(nil, round, overlay.PeerID(id), p, false)
			p.toggle = addClamped(round, sp.Outage)
			// The outage usually pushes the toggle later than the wake
			// already scheduled; the stale wake resolves as a spurious
			// visit. Only an earlier toggle needs a new calendar entry.
			s.scheduleEarlier(overlay.PeerID(id), p.toggle)
			victims++
		}
		ev := ShockEvent{Round: round, Index: i, Name: sp.Name, Victims: victims, Killed: sp.Kill}
		for _, pr := range s.dispatch[evShock] {
			pr.OnShock(ev)
		}
	}
}

// ---------------------------------------------------------------------------
// Trace replay

// replayScript is a compiled churn trace: events sorted into engine
// order with, for every join event, the occupant's departure round
// precomputed so selection oracles see ground-truth remaining lifetime.
type replayScript struct {
	events []churn.Event
	death  []int64 // per event index, meaningful for EvJoin events
	next   int     // cursor into events
}

// compileReplay validates a trace against the engine's fixed-population
// model and compiles it into a replayScript. The rules mirror what
// RecordTrace emits:
//
//   - every slot in [0, numPeers) joins at round 0 (the population is
//     always full);
//   - a leave is immediately followed by a join of the same slot in the
//     same round (departures are replaced at once);
//   - session events only occur for occupied slots.
func compileReplay(t *churn.Trace, numPeers int) (*replayScript, error) {
	if t == nil || len(t.Events) == 0 {
		return nil, fmt.Errorf("sim: replay trace is empty")
	}
	// Traces from tracegen, WriteCSV round-trips and the engine's own
	// recorder are already in engine order; skip the copy + O(E log E)
	// sort then, so a campaign replaying one large trace across many
	// variants shares the caller's slice read-only instead of cloning
	// it per run.
	events := t.Events
	if !t.IsSorted() {
		sorted := &churn.Trace{Events: append([]churn.Event(nil), events...)}
		sorted.Sort()
		events = sorted.Events
	}
	death := make([]int64, len(events))
	openJoin := make([]int, numPeers) // event index of the occupying join, -1 when vacant
	for i := range openJoin {
		openJoin[i] = -1
	}
	everJoined := make([]bool, numPeers)
	for i, e := range events {
		if e.Peer < 0 || int(e.Peer) >= numPeers {
			return nil, fmt.Errorf("sim: replay event %d: peer %d outside population [0,%d)", i, e.Peer, numPeers)
		}
		id := int(e.Peer)
		switch e.Kind {
		case churn.EvJoin:
			if openJoin[id] >= 0 {
				return nil, fmt.Errorf("sim: replay round %d: peer %d joins while already a member", e.Round, e.Peer)
			}
			if !everJoined[id] && e.Round != 0 {
				return nil, fmt.Errorf("sim: replay peer %d first joins at round %d; the fixed-population model needs every slot occupied from round 0", e.Peer, e.Round)
			}
			everJoined[id] = true
			openJoin[id] = i
			death[i] = never
		case churn.EvLeave:
			if openJoin[id] < 0 {
				return nil, fmt.Errorf("sim: replay round %d: peer %d leaves without having joined", e.Round, e.Peer)
			}
			death[openJoin[id]] = e.Round
			openJoin[id] = -1
			// Departures are replaced immediately: the sort order puts
			// the replacement join right after this leave.
			if i+1 >= len(events) || events[i+1].Peer != e.Peer || events[i+1].Round != e.Round || events[i+1].Kind != churn.EvJoin {
				return nil, fmt.Errorf("sim: replay round %d: peer %d leaves without a same-round replacement join (departures are replaced immediately)", e.Round, e.Peer)
			}
		case churn.EvOnline, churn.EvOffline:
			if openJoin[id] < 0 {
				return nil, fmt.Errorf("sim: replay round %d: session event for vacant slot %d", e.Round, e.Peer)
			}
		default:
			return nil, fmt.Errorf("sim: replay event %d: unknown kind %v", i, e.Kind)
		}
	}
	for id, ok := range everJoined {
		if !ok {
			return nil, fmt.Errorf("sim: replay trace never populates slot %d of %d (set NumPeers from Trace.MaxPeer()+1)", id, numPeers)
		}
	}
	return &replayScript{events: events, death: death}, nil
}

// applyReplay consumes this round's trace events, mutating peer slots
// exactly as the generative churn phase would but without consuming any
// randomness: membership and sessions come verbatim from the trace.
func (s *Simulation) applyReplay(round int64) {
	rp := s.replay
	for rp.next < len(rp.events) && rp.events[rp.next].Round == round {
		e := rp.events[rp.next]
		idx := rp.next
		rp.next++
		id := overlay.PeerID(e.Peer)
		p := &s.peers[id]
		switch e.Kind {
		case churn.EvLeave:
			s.effect(nil, round, effect{kind: effDeath, id: int32(id), prof: p.profile, cat: p.cat})
			s.deaths++
			s.catPop[p.cat]--
			s.tab.Bump(id)
			s.maint.Reset(id)
		case churn.EvJoin:
			prof := int(e.Profile)
			if prof < 0 || prof >= s.cfg.Profiles.Len() {
				prof = 0 // legacy/external traces without profile attribution
			}
			p.profile = int32(prof)
			p.avail = s.cfg.Profiles.Profile(prof).Availability
			if s.xfer != nil {
				// Like initPeer: a single-class mix consumes no
				// randomness, keeping replayed runs deterministic.
				s.xfer.AssignClass(id, s.r)
			}
			s.joins[id] = round
			p.cat = metrics.Newcomer
			s.catPop[metrics.Newcomer]++
			p.catChange = addClamped(round, metrics.CategoryBound(metrics.Newcomer))
			s.scheduleEarlier(id, p.catChange)
			p.death = rp.death[idx]
			p.toggle = never // sessions come from the trace
			p.online = false
			s.led.SetOnline(id, false)
			s.forgetHistory(id)
			s.recordSession(round, id, false)
			s.emitChurn(round, id, churn.EvJoin, prof)
		case churn.EvOnline:
			if !p.online {
				s.setOnline(nil, round, id, p, true)
			} else {
				s.emitChurn(round, id, churn.EvOnline, int(p.profile))
			}
		case churn.EvOffline:
			if p.online {
				s.setOnline(nil, round, id, p, false)
			} else {
				s.emitChurn(round, id, churn.EvOffline, int(p.profile))
			}
		}
	}
}
