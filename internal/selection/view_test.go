package selection

import (
	"testing"

	"p2pbackup/internal/monitor"
	"p2pbackup/internal/rng"
)

// ageView builds a View carrying only observable age.
func ageView(age int64) View { return View{Observed: Observed{Age: age}} }

// TestNativePoliciesMatchLegacyStrategies pins the redesign's
// bit-identity contract at the unit level: for every knowledge point on
// a grid, the native Policy implementations compute exactly the floats
// the legacy Strategy implementations did (and the Adapt/AsStrategy
// round-trips preserve them).
func TestNativePoliciesMatchLegacyStrategies(t *testing.T) {
	pairs := []struct {
		spec   string
		legacy Strategy
	}{
		{"age:L=2160", AgeBased{L: 2160}},
		{"random", Random{}},
		{"availability-oracle", AvailabilityOracle{}},
		{"lifetime-oracle", LifetimeOracle{}},
		{"youngest-first", YoungestFirst{}},
	}
	infos := []PeerInfo{
		{},
		{Age: -3},
		{Age: 1, Availability: 0.33, Remaining: 7},
		{Age: 2159, Availability: 0.95, Remaining: 100000},
		{Age: 2160, Availability: 0.5, Remaining: 1},
		{Age: 999999, Availability: 1, Remaining: 0},
	}
	ctx := Context{Round: 12345}
	for _, pair := range pairs {
		pol, err := Parse(pair.spec)
		if err != nil {
			t.Fatal(err)
		}
		adapted := Adapt(pair.legacy)
		for _, a := range infos {
			for _, b := range infos {
				va, vb := inflate(a), inflate(b)
				if got, want := pol.AcceptProb(ctx, va, vb), pair.legacy.AcceptProb(a, b); got != want {
					t.Fatalf("%s: AcceptProb(%+v,%+v) = %v, legacy %v", pair.spec, a, b, got, want)
				}
				if got, want := adapted.AcceptProb(ctx, va, vb), pair.legacy.AcceptProb(a, b); got != want {
					t.Fatalf("%s: adapted AcceptProb differs", pair.spec)
				}
			}
			if got, want := pol.Score(ctx, inflate(a)), pair.legacy.Score(a); got != want {
				t.Fatalf("%s: Score(%+v) = %v, legacy %v", pair.spec, a, got, want)
			}
			if got, want := AsStrategy(pol).Score(a), pair.legacy.Score(a); got != want {
				t.Fatalf("%s: AsStrategy Score differs", pair.spec)
			}
		}
	}
}

func TestAdaptRoundTripUnwraps(t *testing.T) {
	s := AgeBased{L: 7}
	if got := AsStrategy(Adapt(s)); got != any(s) {
		t.Fatalf("AsStrategy(Adapt(s)) = %#v, want the original strategy", got)
	}
	p, err := Parse("monitored-availability:9")
	if err != nil {
		t.Fatal(err)
	}
	if got := Adapt(AsStrategy(p)); got != any(p) {
		t.Fatalf("Adapt(AsStrategy(p)) = %#v, want the original policy", got)
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
		if !AcceptsAll(pol) {
			t.Errorf("%s must declare AcceptsAll", spec)
		}
		if !AcceptsAll(AsStrategy(pol)) {
			t.Errorf("%s must keep AcceptsAll through AsStrategy", spec)
		}
	}
	age, err := Parse("age")
	if err != nil {
		t.Fatal(err)
	}
	if AcceptsAll(age) {
		t.Fatal("the age strategy is not always-accept")
	}
	for _, s := range []Strategy{Random{}, AvailabilityOracle{}, LifetimeOracle{}, YoungestFirst{}} {
		if !AcceptsAll(s) || !AcceptsAll(Adapt(s)) {
			t.Errorf("legacy %s must declare AcceptsAll (directly and adapted)", s.Name())
		}
	}
	if AcceptsAll(AgeBased{L: 5}) || AcceptsAll(Adapt(AgeBased{L: 5})) {
		t.Fatal("legacy age strategy must not declare AcceptsAll")
	}
}

// TestAgreeConsumesNoRandomnessWhenCertain is the satellite fix: the
// four always-accept baselines (and any prob==1 direction) must not
// advance the generator, while the probabilistic age path must keep its
// historical draw pattern so pre-redesign goldens stay bit-identical.
func TestAgreeConsumesNoRandomnessWhenCertain(t *testing.T) {
	elder, newborn := PeerInfo{Age: testL}, PeerInfo{Age: 0}
	for _, s := range []Strategy{Random{}, AvailabilityOracle{}, LifetimeOracle{}, YoungestFirst{}} {
		r := rng.New(42)
		before := r.State()
		if !Agree(r, s, newborn, elder) {
			t.Fatalf("%s must agree", s.Name())
		}
		if r.State() != before {
			t.Fatalf("%s consumed randomness despite always accepting", s.Name())
		}
	}
	// Both directions certain (equal ages => f = 1 both ways): no draw.
	r := rng.New(42)
	before := r.State()
	if !Agree(r, AgeBased{L: testL}, elder, elder) || r.State() != before {
		t.Fatal("certain age agreement consumed randomness")
	}
	// Probabilistic direction still draws — exactly once per direction
	// with p < 1.
	r2 := rng.New(42)
	ref := rng.New(42)
	Agree(r2, AgeBased{L: testL}, newborn, elder)
	// owner->candidate is 1 (elder older), candidate->owner is 1/L: one
	// draw total.
	ref.Float64()
	if r2.State() != ref.State() {
		t.Fatal("probabilistic agreement must draw exactly once per uncertain direction")
	}
	// AgreeCtx mirrors the same draw discipline on the Policy surface.
	pol, err := Parse("age:L=2160")
	if err != nil {
		t.Fatal(err)
	}
	r3, ref3 := rng.New(7), rng.New(7)
	AgreeCtx(r3, pol, Context{}, ageView(0), ageView(testL))
	ref3.Float64()
	if r3.State() != ref3.State() {
		t.Fatal("AgreeCtx draw pattern differs from Agree")
	}
	for _, spec := range []string{"random", "monitored-availability", "estimator:pareto"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(9)
		before := r.State()
		if !AgreeCtx(r, p, Context{}, ageView(1), ageView(2)) || r.State() != before {
			t.Fatalf("%s: AgreeCtx consumed randomness", spec)
		}
	}
}

func TestAgreeCtxMatchesLegacyAgreeDecisions(t *testing.T) {
	pol, err := Parse("age:L=2160")
	if err != nil {
		t.Fatal(err)
	}
	legacy := AgeBased{L: 2160}
	rNew, rOld := rng.New(99), rng.New(99)
	ages := []int64{0, 1, 50, 2159, 2160, 9000}
	for i := 0; i < 2000; i++ {
		a := ages[i%len(ages)]
		b := ages[(i*7+3)%len(ages)]
		got := AgreeCtx(rNew, pol, Context{Round: int64(i)}, ageView(a), ageView(b))
		want := Agree(rOld, legacy, PeerInfo{Age: a}, PeerInfo{Age: b})
		if got != want {
			t.Fatalf("decision %d differs: ages (%d,%d) new=%v old=%v", i, a, b, got, want)
		}
	}
	if rNew.State() != rOld.State() {
		t.Fatal("rng streams diverged")
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

// loudHistory is a history a policy with age-keyed acceptance must
// never consult.
type loudHistory struct{ t *testing.T }

func (h loudHistory) Uptime(int64, int64) float64 {
	h.t.Error("an age-keyed AcceptProb queried the history")
	return 0.5
}

func (h loudHistory) ObservedSince() (int64, bool) {
	h.t.Error("an age-keyed AcceptProb queried the history")
	return 0, true
}

// TestAgeAccepterMatchesAcceptProb holds every registered policy that
// declares age-keyed acceptance to its word: AcceptProbByAge on two ages
// is AcceptProb on any two Views carrying those ages, bit for bit,
// whatever the round and whatever History and Oracle the Views hold.
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
	declared := 0
	for _, spec := range append(Names(), "age:L=24", "age:L=1") {
		for _, d := range []Defaults{{}, {Horizon: 48}} {
			pol, err := ParseWith(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			byAge, ok := pol.(AgeAccepter)
			if !ok {
				continue
			}
			declared++
			if AcceptsAll(pol) {
				t.Errorf("%s declares both constant and age-keyed acceptance", pol.Name())
			}
			for _, a := range ages {
				for _, b := range ages {
					want := byAge.AcceptProbByAge(a, b)
					for i, da := range dressings {
						db := dressings[(i+1)%len(dressings)]
						for _, round := range []int64{0, 12345} {
							if got := pol.AcceptProb(Context{Round: round}, da(a), db(b)); got != want {
								t.Fatalf("%s: AcceptProb(ages %d, %d) = %v at round %d, AcceptProbByAge %v",
									pol.Name(), a, b, got, round, want)
							}
						}
					}
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("no registered policy declares age-keyed acceptance: the paper's does")
	}
	if _, ok := Adapt(AgeBased{L: 5}).(AgeAccepter); ok {
		t.Fatal("an adapted legacy strategy cannot vouch for what its AcceptProb reads")
	}
}
