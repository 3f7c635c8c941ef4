package selection

import (
	"math"
	"testing"
	"testing/quick"

	"p2pbackup/internal/rng"
)

const testL = 2160 // 90 days in rounds, the paper's horizon

func TestAcceptanceFunctionPaperProperties(t *testing.T) {
	// Property 1: never zero; minimum is exactly 1/L (elder vs newborn).
	if got := AcceptanceFunction(testL, 0, testL); math.Abs(got-1.0/testL) > 1e-15 {
		t.Fatalf("elder accepting newborn = %v, want 1/L = %v", got, 1.0/testL)
	}
	// Property 2: always one when the requester is at least as old.
	for _, ages := range [][2]int64{{0, 0}, {0, 100}, {100, 100}, {100, testL}, {testL, testL}, {testL, 999999}} {
		if got := AcceptanceFunction(ages[0], ages[1], testL); got != 1 {
			t.Errorf("f(%d, %d) = %v, want 1 (older requester)", ages[0], ages[1], got)
		}
	}
	// Property 3: asymmetric below the horizon.
	if AcceptanceFunction(1000, 10, testL) == AcceptanceFunction(10, 1000, testL) {
		t.Fatal("acceptance must be asymmetric for young/old pairs")
	}
	// ... but symmetric (both 1) once both exceed L.
	if AcceptanceFunction(testL+5, testL+9999, testL) != AcceptanceFunction(testL+9999, testL+5, testL) {
		t.Fatal("beyond the horizon both directions must be 1")
	}
}

func TestAcceptanceFunctionPropertyBased(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		s1, s2 := int64(a%10000), int64(b%10000)
		v := AcceptanceFunction(s1, s2, testL)
		if v < 1.0/testL-1e-15 || v > 1 {
			return false
		}
		if s2 >= s1 && v != 1 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Monotone: for a fixed acceptor, older requesters are never less
	// welcome.
	if err := quick.Check(func(a, b, c uint32) bool {
		s1 := int64(a % 10000)
		r1, r2 := int64(b%10000), int64(c%10000)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return AcceptanceFunction(s1, r1, testL) <= AcceptanceFunction(s1, r2, testL)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAcceptanceFunctionClampsNegativeAges(t *testing.T) {
	if AcceptanceFunction(-5, -7, testL) != 1 {
		t.Fatal("negative ages must clamp to 0 (equal -> accept)")
	}
}

func TestAcceptanceFunctionPanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L = 0 must panic")
		}
	}()
	AcceptanceFunction(1, 2, 0)
}

// mustParse resolves a spec with the test horizon as default.
func mustParse(t *testing.T, spec string) Policy {
	t.Helper()
	pol, err := ParseWith(spec, Defaults{Horizon: testL})
	if err != nil {
		t.Fatalf("ParseWith(%q): %v", spec, err)
	}
	return pol
}

func TestAgeBasedStrategy(t *testing.T) {
	s := mustParse(t, "age")
	if s.Name() != "age(L=2160)" {
		t.Fatalf("Name = %q", s.Name())
	}
	// Score is capped age.
	if s.Score(Context{}, ageView(100)) != 100 {
		t.Fatal("score below cap must equal age")
	}
	if s.Score(Context{}, ageView(testL*10)) != testL {
		t.Fatal("score must cap at L")
	}
	if s.Score(Context{}, ageView(-3)) != 0 {
		t.Fatal("negative age must score 0")
	}
	// Acceptance wires through the acceptance function.
	got := acceptProb(s, ageView(testL), ageView(0))
	if math.Abs(got-1.0/testL) > 1e-15 {
		t.Fatalf("acceptance = %v, want 1/L", got)
	}
}

func TestAgreeMutual(t *testing.T) {
	r := rng.New(1)
	s := mustParse(t, "age")
	elder, newborn := ageView(testL), ageView(0)
	// A newborn owner asking an elder candidate: the elder rarely
	// agrees (probability 1/L each trial).
	agreed := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if AgreeCtx(r, s, Context{}, newborn, elder) {
			agreed++
		}
	}
	got := float64(agreed) / trials
	want := 1.0 / testL
	if got > want*3 || got < want/3 {
		t.Fatalf("newborn-elder agreement rate = %v, want ~%v", got, want)
	}
	// Two elders always agree.
	for i := 0; i < 100; i++ {
		if !AgreeCtx(r, s, Context{}, elder, elder) {
			t.Fatal("elders must always agree")
		}
	}
}

func TestRandomStrategy(t *testing.T) {
	s := mustParse(t, "random")
	if s.AcceptHorizon() != 0 {
		t.Fatal("random must accept everyone")
	}
	if s.Score(Context{}, ageView(5)) != s.Score(Context{}, ageView(50000)) {
		t.Fatal("random score must be constant")
	}
}

func TestOracleStrategies(t *testing.T) {
	a := mustParse(t, "availability-oracle")
	avail := func(p float64) View { return View{Oracle: Oracle{Availability: p}} }
	if a.Score(Context{}, avail(0.9)) <= a.Score(Context{}, avail(0.3)) {
		t.Fatal("availability oracle must prefer higher availability")
	}
	l := mustParse(t, "lifetime-oracle")
	remaining := func(n int64) View { return View{Oracle: Oracle{Remaining: n}} }
	if l.Score(Context{}, remaining(5000)) <= l.Score(Context{}, remaining(10)) {
		t.Fatal("lifetime oracle must prefer longer remaining lifetime")
	}
	y := mustParse(t, "youngest-first")
	if y.Score(Context{}, ageView(10)) <= y.Score(Context{}, ageView(1000)) {
		t.Fatal("youngest-first must prefer younger")
	}
	for _, s := range []Policy{a, l, y} {
		if s.AcceptHorizon() != 0 {
			t.Fatalf("%s must accept everyone", s.Name())
		}
		if s.Name() == "" {
			t.Fatal("empty name")
		}
	}
}
