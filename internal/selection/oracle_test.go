package selection

// The differential oracle for IgnoresHistory. A caller keeps no
// availability histories for a policy that declares it, and hands it
// Views whose Observed.History is nil; the policy must then rank
// exactly as it would with a monitoring substrate attached. So
// every declaring policy is evaluated on a grid of ages, rounds and
// session patterns twice: once with a populated monitor.IntervalHistory
// behind each View — the reference, what the engine computed when it
// recorded histories for every policy — and once with none. The
// reference is the arbiter: a counterexample is a wrong declaration,
// never a wrong test.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"p2pbackup/internal/monitor"
)

// sessionPattern is a peer's session state by round, from the round it
// was first observed.
type sessionPattern struct {
	name  string
	first func(now int64) int64 // first observed round; > now: never observed
	on    func(round int64) bool
}

var sessionPatterns = []sessionPattern{
	{"never observed", func(now int64) int64 { return now + 1 }, nil},
	{"always online", func(int64) int64 { return 0 }, func(int64) bool { return true }},
	{"always offline", func(int64) int64 { return 0 }, func(int64) bool { return false }},
	{"seven-round sessions", func(int64) int64 { return 0 }, func(r int64) bool { return r/7%2 == 0 }},
	{"scattered sessions", func(int64) int64 { return 0 }, func(r int64) bool {
		return bits.OnesCount64(uint64(r)*0x9e3779b97f4a7c15)%2 == 0
	}},
	{"joined three rounds ago", func(now int64) int64 { return max(0, now-3) }, func(r int64) bool { return r%2 == 1 }},
}

// recordedHistory replays a pattern into a history over window, round
// by round up to now, as the engine records sessions.
func recordedHistory(t *testing.T, p sessionPattern, window, now int64) *monitor.IntervalHistory {
	t.Helper()
	h := monitor.NewIntervalHistory(window)
	for r := p.first(now); r <= now; r++ {
		if err := h.RecordTransition(r, p.on(r)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// historyGrid is one round of the grid: the round and, per session
// pattern, the history recorded up to it.
type historyGrid struct {
	round int64
	hists []*monitor.IntervalHistory
}

// historyAges spans negative ages, newcomers, the category bounds and
// both sides of the default horizon.
var historyAges = []int64{-5, 0, 1, 24, 48, 720, 2159, 2160, 2161, 1 << 40}

func buildHistoryGrids(t *testing.T, window int64) []historyGrid {
	t.Helper()
	var grids []historyGrid
	for _, round := range []int64{0, 1, 100, 2160, 12345} {
		g := historyGrid{round: round}
		for _, p := range sessionPatterns {
			g.hists = append(g.hists, recordedHistory(t, p, window, round))
		}
		grids = append(grids, g)
	}
	return grids
}

// historyMismatch scores every candidate of the grid with and without
// its history and describes the first point where the two differ in a
// single bit, or returns "" when none does. Acceptance needs no grid: it
// reads the two ages alone (TestAgeAccepterMatchesAcceptProb).
func historyMismatch(pol Policy, grids []historyGrid) string {
	for _, g := range grids {
		ctx := Context{Round: g.round}
		for i, age := range historyAges {
			oracle := Oracle{Availability: float64(i%4) / 4, Remaining: age * 3}
			for j, h := range g.hists {
				bare := View{Observed: Observed{Age: age}, Oracle: oracle}
				kept := View{Observed: Observed{Age: age, History: h}, Oracle: oracle}
				if want, got := pol.Score(ctx, kept), pol.Score(ctx, bare); math.Float64bits(want) != math.Float64bits(got) {
					return fmt.Sprintf("round %d, age %d, %s: Score %v with the history, %v without",
						g.round, age, sessionPatterns[j].name, want, got)
				}
			}
		}
	}
	return ""
}

// TestIgnoresHistoryMatchesRecordedHistory holds every registered policy
// that declares IgnoresHistory to its word, and checks that the grid can
// tell: the monitored-availability ranking, which reads histories, must
// differ on it — so the test fails the day that policy gains the
// declaration.
func TestIgnoresHistoryMatchesRecordedHistory(t *testing.T) {
	blind := map[string]bool{
		"age": true, "random": true, "youngest-first": true,
		"availability-oracle": true, "lifetime-oracle": true,
		"estimator:age": true, "estimator:pareto": true, "estimator:empirical": true,
	}
	for _, d := range []Defaults{{}, {Horizon: 48}} {
		grids := buildHistoryGrids(t, d.horizon())
		for _, spec := range append(Names(), "age:L=24", "monitored-availability:10") {
			pol, err := ParseWith(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			mismatch := historyMismatch(pol, grids)
			switch {
			case ReadsHistory(pol) && blind[spec]:
				t.Errorf("%s reads nothing of Observed.History and must declare IgnoresHistory", pol.Name())
			case !ReadsHistory(pol) && mismatch != "":
				t.Errorf("%s declares IgnoresHistory, but at %s", pol.Name(), mismatch)
			case ReadsHistory(pol) && mismatch == "":
				t.Errorf("%s reads histories, yet the grid cannot tell it from a policy that ignores them", pol.Name())
			}
		}
	}
	if !ReadsHistory(struct{ Policy }{agePolicy{L: 24}}) {
		t.Error("a policy that declares nothing must be taken to read histories")
	}
}
