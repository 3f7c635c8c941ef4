package sim

import (
	"bytes"
	"reflect"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/dist"
)

// churnyProfiles is a two-profile population with lifetimes short
// enough that a 300-round run sees plenty of departures.
func churnyProfiles(t *testing.T) *churn.ProfileSet {
	t.Helper()
	u, err := dist.NewUniform(40, 160)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := churn.NewProfileSet([]churn.Profile{
		{Name: "fleeting", Proportion: 0.7, Lifetime: u, Availability: 0.7},
		{Name: "durable", Proportion: 0.3, Lifetime: nil, Availability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// recordedRun executes a small generative run with trace capture on and
// returns the trace plus headline numbers.
func recordedRun(t *testing.T) (*churn.Trace, *Result) {
	t.Helper()
	cfg := smallConfig()
	cfg.Rounds = 300
	cfg.Profiles = churnyProfiles(t)
	cfg.RecordTrace = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("no trace recorded")
	}
	return res.Trace, res
}

// resultKey collapses a Result into comparable headline numbers.
func resultKey(res *Result) [6]int64 {
	return [6]int64{
		res.Deaths,
		res.Collector.TotalRepairs(),
		res.Collector.TotalLosses(),
		res.Collector.TotalHardLosses(),
		int64(res.FinalPlacements),
		int64(res.FinalIncluded),
	}
}

func replayConfig(t *testing.T, trace *churn.Trace) Config {
	cfg := smallConfig()
	cfg.Rounds = 300
	cfg.Profiles = churnyProfiles(t)
	cfg.Replay = trace
	return cfg
}

// TestReplayRoundTrip is the round-trip determinism contract: a
// recorded trace, serialized and parsed back, drives two replay runs to
// bit-identical results, and the churn stream a replay emits is exactly
// the source trace.
func TestReplayRoundTrip(t *testing.T) {
	src, _ := recordedRun(t)

	// Serialize and re-read (CSV carries profiles since PR 2).
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := churn.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func() *Result {
		cfg := replayConfig(t, parsed)
		cfg.RecordTrace = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if resultKey(a) != resultKey(b) {
		t.Fatalf("replay not deterministic: %v vs %v", resultKey(a), resultKey(b))
	}

	// The replayed churn stream is the source trace, event for event.
	want := &churn.Trace{Events: append([]churn.Event(nil), src.Events...)}
	want.Sort()
	got := &churn.Trace{Events: append([]churn.Event(nil), a.Trace.Events...)}
	got.Sort()
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatalf("replayed churn differs from source: %d vs %d events", len(want.Events), len(got.Events))
	}
	if a.Deaths == 0 {
		t.Fatal("trace replayed no departures; test too weak")
	}
}

// TestReplayPreservesPopulationShape: deaths and the final category
// populations under replay match the generative run the trace came
// from (same churn in, same churn out).
func TestReplayPreservesPopulationShape(t *testing.T) {
	src, orig := recordedRun(t)
	cfg := replayConfig(t, src)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Deaths != orig.Deaths {
		t.Fatalf("replay deaths %d != recorded run deaths %d", res.Deaths, orig.Deaths)
	}
	if cfg.NumPeers != 0 && res.Config.NumPeers != orig.Config.NumPeers {
		t.Fatalf("replay population %d != original %d", res.Config.NumPeers, orig.Config.NumPeers)
	}
}

// TestReplayPairedStrategies: the point of replay is paired comparison —
// two strategies over the same churn. Both runs must see identical
// death sequences while producing their own maintenance outcomes.
func TestReplayPairedStrategies(t *testing.T) {
	src, _ := recordedRun(t)
	run := func(spec string) *Result {
		cfg := replayConfig(t, src)
		cfg.StrategySpec = spec
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	age := run("age:L=48")
	random := run("random")
	if age.Deaths != random.Deaths {
		t.Fatalf("paired runs diverged in churn: %d vs %d deaths", age.Deaths, random.Deaths)
	}
	if age.Collector.TotalRepairs() == random.Collector.TotalRepairs() &&
		age.Collector.TotalLosses() == random.Collector.TotalLosses() &&
		age.FinalPlacements == random.FinalPlacements {
		t.Log("warning: strategies produced identical outcomes on this trace (possible but unlikely)")
	}
}

// TestReplayValidation: malformed traces are rejected with structural
// errors rather than corrupting a run.
func TestReplayValidation(t *testing.T) {
	mk := func(events ...churn.Event) *churn.Trace { return &churn.Trace{Events: events} }
	cases := []struct {
		name  string
		trace *churn.Trace
	}{
		{"empty", mk()},
		{"late first join", mk(
			churn.Event{Round: 0, Peer: 0, Kind: churn.EvJoin},
			churn.Event{Round: 0, Peer: 1, Kind: churn.EvJoin},
			churn.Event{Round: 3, Peer: 2, Kind: churn.EvJoin},
		)},
		{"double join", mk(
			churn.Event{Round: 0, Peer: 0, Kind: churn.EvJoin},
			churn.Event{Round: 2, Peer: 0, Kind: churn.EvJoin},
		)},
		{"leave without join", mk(
			churn.Event{Round: 0, Peer: 0, Kind: churn.EvJoin},
			churn.Event{Round: 0, Peer: 1, Kind: churn.EvOnline},
		)},
		{"leave without replacement", mk(
			churn.Event{Round: 0, Peer: 0, Kind: churn.EvJoin},
			churn.Event{Round: 4, Peer: 0, Kind: churn.EvLeave},
		)},
	}
	for _, tc := range cases {
		if _, err := compileReplay(tc.trace, int(tc.trace.MaxPeer())+1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestReplayLifetimeOracle: replay precomputes departures, so the
// lifetime oracle sees ground truth through Env.Info.
func TestReplayLifetimeOracle(t *testing.T) {
	trace := &churn.Trace{}
	trace.AppendProfile(0, 0, churn.EvJoin, 0)
	trace.AppendProfile(0, 0, churn.EvOnline, 0)
	trace.AppendProfile(0, 1, churn.EvJoin, 0)
	trace.AppendProfile(0, 1, churn.EvOnline, 0)
	trace.AppendProfile(7, 1, churn.EvLeave, 0)
	trace.AppendProfile(7, 1, churn.EvJoin, 0)
	trace.AppendProfile(7, 1, churn.EvOnline, 0)

	script, err := compileReplay(trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The round-0 join of peer 1 departs at round 7; peer 0 never does.
	var sawDeparting, sawImmortal bool
	for i, e := range script.events {
		if e.Kind != churn.EvJoin {
			continue
		}
		switch {
		case e.Peer == 1 && e.Round == 0:
			if script.death[i] != 7 {
				t.Fatalf("peer 1 death = %d, want 7", script.death[i])
			}
			sawDeparting = true
		case e.Peer == 0:
			if script.death[i] != never {
				t.Fatalf("peer 0 death = %d, want never", script.death[i])
			}
			sawImmortal = true
		}
	}
	if !sawDeparting || !sawImmortal {
		t.Fatal("expected join events not found")
	}
}

// TestReplayUnsortedTraceEquivalent: an externally supplied trace in
// arbitrary event order compiles to the same script as its sorted form
// (compileReplay falls back to a copy + sort; the caller's slice is
// never mutated).
func TestReplayUnsortedTraceEquivalent(t *testing.T) {
	src, _ := recordedRun(t)
	shuffled := &churn.Trace{Events: append([]churn.Event(nil), src.Events...)}
	for i := len(shuffled.Events) - 1; i > 0; i -= 7 { // deterministic scramble
		j := (i * 13) % i
		shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
	}
	backup := append([]churn.Event(nil), shuffled.Events...)

	a, err := compileReplay(src, int(src.MaxPeer())+1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileReplay(shuffled, int(shuffled.MaxPeer())+1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.events, b.events) || !reflect.DeepEqual(a.death, b.death) {
		t.Fatal("unsorted trace compiled differently from sorted trace")
	}
	if !reflect.DeepEqual(backup, shuffled.Events) {
		t.Fatal("compileReplay mutated the caller's event slice")
	}
}
