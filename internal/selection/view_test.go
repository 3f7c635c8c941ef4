package selection

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"p2pbackup/internal/monitor"
	"p2pbackup/internal/rng"
)

// ageView builds a View carrying only observable age.
func ageView(age int64) View { return View{Observed: Observed{Age: age}} }

// acceptProb is the probability that acceptor agrees to a partnership
// requested by requester under p, as Policy defines it:
// AcceptanceFunction of the two observed ages at p's horizon, or 1 at
// horizon 0.
func acceptProb(p Policy, acceptor, requester View) float64 {
	L := p.AcceptHorizon()
	if L == 0 {
		return 1
	}
	return AcceptanceFunction(acceptor.Observed.Age, requester.Observed.Age, L)
}

// TestNativePoliciesMatchLegacyStrategies pins, for every knowledge
// point on a grid, the exact floats the paper's strategy and its four
// baselines compute, against closed forms written out here: each reads
// only the knowledge class it is entitled to, and nothing of the round.
func TestNativePoliciesMatchLegacyStrategies(t *testing.T) {
	clampAge := func(age, l int64) int64 {
		if age < 0 {
			return 0
		}
		if age > l {
			return l
		}
		return age
	}
	one := func(a, b View) float64 { return 1 }
	cases := []struct {
		spec   string
		accept func(a, b View) float64
		score  func(v View) float64
	}{
		{"age:L=2160",
			func(a, b View) float64 {
				// f(p1, p2) = min((L - (min(s1, L) - min(s2, L)) + 1) / L, 1)
				s1, s2 := clampAge(a.Observed.Age, 2160), clampAge(b.Observed.Age, 2160)
				return math.Min(float64(2160-(s1-s2)+1)/2160, 1)
			},
			func(v View) float64 { return float64(clampAge(v.Observed.Age, 2160)) }},
		{"random", one, func(View) float64 { return 0 }},
		{"availability-oracle", one, func(v View) float64 { return v.Oracle.Availability }},
		{"lifetime-oracle", one, func(v View) float64 { return float64(v.Oracle.Remaining) }},
		{"youngest-first", one, func(v View) float64 { return -float64(v.Observed.Age) }},
	}
	view := func(age int64, avail float64, remaining int64) View {
		return View{Observed: Observed{Age: age}, Oracle: Oracle{Availability: avail, Remaining: remaining}}
	}
	views := []View{
		{},
		view(-3, 0, 0),
		view(1, 0.33, 7),
		view(2159, 0.95, 100000),
		view(2160, 0.5, 1),
		view(999999, 1, 0),
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctx := range []Context{{}, {Round: 12345}} {
			for _, a := range views {
				for _, b := range views {
					if got, want := acceptProb(pol, a, b), c.accept(a, b); got != want {
						t.Fatalf("%s: acceptance(%+v,%+v) = %v, want %v", c.spec, a, b, got, want)
					}
				}
				if got, want := pol.Score(ctx, a), c.score(a); got != want {
					t.Fatalf("%s: Score(%+v) = %v, want %v", c.spec, a, got, want)
				}
			}
		}
	}
}

func TestAcceptsAllMarkers(t *testing.T) {
	always := []string{"random", "availability-oracle", "lifetime-oracle", "youngest-first",
		"estimator:age", "estimator:pareto", "estimator:empirical", "monitored-availability"}
	for _, spec := range always {
		pol, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if L := pol.AcceptHorizon(); L != 0 {
			t.Errorf("%s must accept everyone (horizon 0), has horizon %d", spec, L)
		}
	}
	age, err := Parse("age")
	if err != nil {
		t.Fatal(err)
	}
	if age.AcceptHorizon() != defaultHorizon {
		t.Fatalf("the age strategy's horizon is %d, want the paper's %d", age.AcceptHorizon(), defaultHorizon)
	}
}

// TestAgreeConsumesNoRandomnessWhenCertain pins AgreeCtx's draw
// discipline: the accept-all policies (horizon 0, and any prob==1 direction)
// must not advance the generator, while the probabilistic age path
// draws exactly once per uncertain direction — the pattern every
// golden trajectory was recorded under.
func TestAgreeConsumesNoRandomnessWhenCertain(t *testing.T) {
	elder, newborn := ageView(testL), ageView(0)
	for _, spec := range []string{"random", "availability-oracle", "lifetime-oracle", "youngest-first",
		"monitored-availability", "estimator:pareto"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42)
		before := r.State()
		if !AgreeCtx(r, p, Context{}, newborn, elder) {
			t.Fatalf("%s must agree", spec)
		}
		if r.State() != before {
			t.Fatalf("%s consumed randomness despite always accepting", spec)
		}
	}
	age, err := Parse("age:L=2160")
	if err != nil {
		t.Fatal(err)
	}
	// Both directions certain (equal ages => f = 1 both ways): no draw.
	r := rng.New(42)
	before := r.State()
	if !AgreeCtx(r, age, Context{}, elder, elder) || r.State() != before {
		t.Fatal("certain age agreement consumed randomness")
	}
	// Probabilistic direction still draws — exactly once per direction
	// with p < 1: owner->candidate is 1 (elder older), candidate->owner
	// is 1/L, so one draw total.
	r2, ref := rng.New(42), rng.New(42)
	AgreeCtx(r2, age, Context{}, newborn, elder)
	ref.Float64()
	if r2.State() != ref.State() {
		t.Fatal("probabilistic agreement must draw exactly once per uncertain direction")
	}
	// Both directions uncertain cannot happen under f (one side is always
	// at least as old); a refused first direction must stop the draw there.
	r3, ref3 := rng.New(7), rng.New(7)
	AgreeCtx(r3, age, Context{Round: 99}, elder, newborn)
	ref3.Float64()
	if r3.State() != ref3.State() {
		t.Fatal("owner-side refusal must cost one draw, whatever the round")
	}
}

func TestMonitoredAvailabilityScoresFromHistory(t *testing.T) {
	h := monitor.NewIntervalHistory(100)
	// Online [0,50), offline [50,100).
	if err := h.RecordTransition(0, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(50, false); err != nil {
		t.Fatal(err)
	}
	pol, err := Parse("monitored-availability:100")
	if err != nil {
		t.Fatal(err)
	}
	v := View{Observed: Observed{Age: 100, History: h}}
	if got := pol.Score(Context{Round: 100}, v); got != 0.5 {
		t.Fatalf("score = %v, want 0.5", got)
	}
	// Shorter window sees only the offline tail.
	short := MonitoredAvailability{Window: 25}
	if got := short.Score(Context{Round: 100}, v); got != 0 {
		t.Fatalf("short-window score = %v, want 0", got)
	}
	// No history: the fallback is zero (and Uptime reports !ok).
	if got := pol.Score(Context{Round: 100}, ageView(100)); got != 0 {
		t.Fatalf("no-history score = %v, want 0", got)
	}
	if _, ok := (Observed{}).Uptime(10, 5); ok {
		t.Fatal("Uptime without history must report !ok")
	}
}

func TestEstimatorRankedScoresByEstimator(t *testing.T) {
	// The paper's equivalence holds for heavy-tailed lifetime models:
	// past each estimator's scale floor (see lifetime.Estimator),
	// estimator-backed ranking orders candidates exactly as ranking by
	// age does (ties allowed). estimator:empirical is fitted to the
	// paper population's observed lifetimes, which are BOUNDED uniform
	// mixtures — heavy-tailed only across the erratic band (one to
	// three months), beyond which conditional remaining lifetime
	// genuinely falls. The test therefore checks it there; the
	// ablation-estimator experiment measures what that divergence costs.
	cases := []struct {
		spec string
		ages []int64 // ascending, within the estimator's monotone range
	}{
		{"estimator:age", []int64{0, 1, 12, 24, 24 * 7, 720, 2159, 2160, 4000}},
		{"estimator:pareto", []int64{1, 12, 24, 24 * 7, 720, 2159, 2160, 4000}},
		{"estimator:empirical", []int64{720, 1000, 1440, 2000, 2160}},
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(c.ages); i++ {
			lo := pol.Score(Context{}, ageView(c.ages[i-1]))
			hi := pol.Score(Context{}, ageView(c.ages[i]))
			if hi < lo {
				t.Errorf("%s: score order violates age order at ages %d < %d (%v > %v)",
					c.spec, c.ages[i-1], c.ages[i], lo, hi)
			}
		}
		if neg := pol.Score(Context{}, ageView(-5)); neg != pol.Score(Context{}, ageView(0)) {
			t.Errorf("%s: negative age must clamp to 0", c.spec)
		}
	}
}

// loudHistory is a history acceptance must never consult.
type loudHistory struct{ t *testing.T }

func (h loudHistory) Uptime(int64, int64) float64 {
	h.t.Error("acceptance queried the history")
	return 0.5
}

// tableProb reads an AcceptTable the way its documentation says to:
// the entry L + clamp(acceptor) − clamp(requester).
func tableProb(tab []float64, acceptor, requester int64) float64 {
	L := int64(len(tab) / 2)
	return tab[L+min(max(acceptor, 0), L)-min(max(requester, 0), L)]
}

// TestAcceptTableIsTheFunction: at every horizon the engine's tables
// come in — the least, the smallest even one, digestConfig's and the
// paper's — every entry the table gives for ages in [−3, L+3]² is
// AcceptanceFunction's value, bit for bit.
func TestAcceptTableIsTheFunction(t *testing.T) {
	for _, L := range []int64{1, 2, 72, 2160} {
		pol, err := Parse(fmt.Sprintf("age:L=%d", L))
		if err != nil {
			t.Fatal(err)
		}
		tab := AcceptTable(pol)
		if int64(len(tab)) != 2*L+1 {
			t.Fatalf("L=%d: table of %d entries, want %d", L, len(tab), 2*L+1)
		}
		for a := int64(-3); a <= L+3; a++ {
			for b := int64(-3); b <= L+3; b++ {
				got, want := tableProb(tab, a, b), AcceptanceFunction(a, b, L)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("L=%d, ages %d, %d: table %v, AcceptanceFunction %v", L, a, b, got, want)
				}
			}
		}
	}
}

// TestAgeAccepterMatchesAcceptProb holds every registered policy's age
// table to the acceptance it stands for: the entry its AcceptTable gives
// for two ages is AcceptanceFunction of those ages at the policy's
// horizon (1 at horizon 0), on any two Views carrying them, bit for bit,
// whatever History and Oracle the Views hold. The policies that accept
// everyone have the one-entry table; the paper's has the function's.
func TestAgeAccepterMatchesAcceptProb(t *testing.T) {
	ages := []int64{-1 << 40, -5, -1, 0, 1, 2, 23, 24, 25, 47, 48, 49, 1000, 2159, 2160, 2161, 1 << 40}
	dressings := []func(age int64) View{
		ageView,
		func(age int64) View {
			return View{Observed: Observed{Age: age, History: loudHistory{t}}, Oracle: Oracle{Availability: 0.25, Remaining: 3}}
		},
		func(age int64) View {
			return View{Observed: Observed{Age: age, History: monitor.NewIntervalHistory(10)}, Oracle: Oracle{Availability: 1, Remaining: -age}}
		},
	}
	all, keyed := 0, 0
	for _, spec := range append(Names(), "age:L=24", "age:L=1") {
		for _, d := range []Defaults{{}, {Horizon: 48}} {
			pol, err := ParseWith(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			L := pol.AcceptHorizon()
			tab := AcceptTable(pol)
			if want := 2*L + 1; int64(len(tab)) != want {
				t.Fatalf("%s: horizon %d, a table of %d entries, want %d", pol.Name(), L, len(tab), want)
			}
			if L == 0 {
				all++
			} else {
				keyed++
			}
			for _, a := range ages {
				for _, b := range ages {
					want := tableProb(tab, a, b)
					for i, da := range dressings {
						db := dressings[(i+1)%len(dressings)]
						if got := acceptProb(pol, da(a), db(b)); got != want {
							t.Fatalf("%s: acceptance(ages %d, %d) = %v, its age table %v", pol.Name(), a, b, got, want)
						}
					}
				}
			}
		}
	}
	if keyed == 0 || all == 0 {
		t.Fatalf("%d policies with a horizon, %d accepting everyone: the paper's must have one, and the baselines accept everyone", keyed, all)
	}
}

// uptimeHistory is a history whose every query answers the same
// fraction.
type uptimeHistory float64

func (h uptimeHistory) Uptime(int64, int64) float64 { return float64(h) }

// TestScoreTableIsTheScore holds every registered spec's ScoreTable to
// its word: a policy that declares ScoresClampedAge has a table of L+1
// entries whose entry clamp(age) is Score itself, bit for bit, for ages
// in [−3, L+3] on Views and Contexts that carry random Oracle truths,
// histories and rounds beside the age. Every other policy, and a
// wrapper that only embeds a declaring one, has no table.
func TestScoreTableIsTheScore(t *testing.T) {
	declares := map[string]bool{"age": true, "random": true}
	r := rng.New(5)
	tables := 0
	for _, spec := range append(Names(), "age:L=1", "age:L=24") {
		for _, d := range []Defaults{{}, {Horizon: 48}} {
			pol, err := ParseWith(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			tab := ScoreTable(pol)
			if wrapped := ScoreTable(struct{ Policy }{pol}); wrapped != nil {
				t.Fatalf("%s: a wrapper that embeds the policy has a score table", pol.Name())
			}
			name, _, _ := strings.Cut(spec, ":")
			if !declares[name] {
				if tab != nil {
					t.Fatalf("%s: a score table, but only %v declare one", pol.Name(), declares)
				}
				continue
			}
			tables++
			L := pol.AcceptHorizon()
			if int64(len(tab)) != L+1 {
				t.Fatalf("%s: horizon %d, a score table of %d entries", pol.Name(), L, len(tab))
			}
			for age := int64(-3); age <= L+3; age++ {
				ctx := Context{Round: int64(r.Intn(1 << 20))}
				v := View{
					Observed: Observed{Age: age, History: uptimeHistory(r.Float64())},
					Oracle:   Oracle{Availability: r.Float64(), Remaining: int64(r.Intn(1<<30)) - 1<<29},
				}
				if r.Intn(4) == 0 {
					v.Observed.History = nil
				}
				got, want := tab[min(max(age, 0), L)], pol.Score(ctx, v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: age %d, its score table %v, Score %v", pol.Name(), age, got, want)
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no registered policy has a score table")
	}
}
