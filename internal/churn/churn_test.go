package churn

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"p2pbackup/internal/dist"
	"p2pbackup/internal/rng"
)

func TestPaperProfiles(t *testing.T) {
	// This test pins the paper's behaviour-profile table (§4.1.1).
	ps := PaperProfiles()
	if ps.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ps.Len())
	}
	cases := []struct {
		name     string
		prop     float64
		avail    float64
		immortal bool
		loLife   float64
		hiLife   float64
	}{
		{"durable", 0.10, 0.95, true, 0, 0},
		{"stable", 0.25, 0.87, false, 1.5 * Year, 3.5 * Year},
		{"unstable", 0.30, 0.75, false, 3 * Month, 18 * Month},
		{"erratic", 0.35, 0.33, false, 1 * Month, 3 * Month},
	}
	for i, c := range cases {
		p := ps.Profile(i)
		if p.Name != c.name {
			t.Errorf("profile %d name = %q, want %q", i, p.Name, c.name)
		}
		if p.Proportion != c.prop {
			t.Errorf("%s proportion = %v, want %v", c.name, p.Proportion, c.prop)
		}
		if p.Availability != c.avail {
			t.Errorf("%s availability = %v, want %v", c.name, p.Availability, c.avail)
		}
		if c.immortal != (p.Lifetime == nil) {
			t.Errorf("%s immortality mismatch", c.name)
		}
		if !c.immortal {
			u, ok := p.Lifetime.(dist.Uniform)
			if !ok {
				t.Fatalf("%s lifetime is not Uniform", c.name)
			}
			if u.Lo != c.loLife || u.Hi != c.hiLife {
				t.Errorf("%s lifetime range [%v,%v), want [%v,%v)", c.name, u.Lo, u.Hi, c.loLife, c.hiLife)
			}
		}
	}
}

func TestTimeUnits(t *testing.T) {
	if Day != 24 || Week != 168 || Month != 720 || Year != 8760 {
		t.Fatalf("time units wrong: day=%d week=%d month=%d year=%d", Day, Week, Month, Year)
	}
}

func TestNewProfileSetValidation(t *testing.T) {
	if _, err := NewProfileSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewProfileSet([]Profile{{Name: "x", Proportion: 0.5, Availability: 0.5}}); err == nil {
		t.Fatal("proportions not summing to 1 accepted")
	}
	if _, err := NewProfileSet([]Profile{{Name: "x", Proportion: 1, Availability: 0}}); err == nil {
		t.Fatal("zero availability accepted")
	}
	if _, err := NewProfileSet([]Profile{{Name: "x", Proportion: 1, Availability: 1.2}}); err == nil {
		t.Fatal("availability > 1 accepted")
	}
	if _, err := NewProfileSet([]Profile{
		{Name: "a", Proportion: -0.5, Availability: 0.5},
		{Name: "b", Proportion: 1.5, Availability: 0.5},
	}); err == nil {
		t.Fatal("negative proportion accepted")
	}
}

func TestSampleIndexProportions(t *testing.T) {
	ps := PaperProfiles()
	r := rng.New(1)
	const n = 200000
	counts := make([]int, ps.Len())
	for i := 0; i < n; i++ {
		counts[ps.SampleIndex(r)]++
	}
	want := []float64{0.10, 0.25, 0.30, 0.35}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("profile %d frequency = %.4f, want %.2f", i, got, w)
		}
	}
}

func TestSampleLifetime(t *testing.T) {
	ps := PaperProfiles()
	r := rng.New(2)
	if ps.SampleLifetime(r, 0) != Unlimited {
		t.Fatal("durable lifetime must be Unlimited")
	}
	for i := 0; i < 1000; i++ {
		l := ps.SampleLifetime(r, 3) // erratic: 1-3 months
		if l < 1*Month || l > 3*Month {
			t.Fatalf("erratic lifetime %d outside [%d, %d]", l, 1*Month, 3*Month)
		}
	}
	// Tiny lifetimes clamp to 1 round.
	tiny, err := NewProfileSet([]Profile{{Name: "t", Proportion: 1, Availability: 0.5, Lifetime: dist.Constant(0.2)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tiny.SampleLifetime(r, 0); got != 1 {
		t.Fatalf("tiny lifetime = %d, want 1", got)
	}
	huge, _ := NewProfileSet([]Profile{{Name: "h", Proportion: 1, Availability: 0.5, Lifetime: dist.Constant(math.Inf(1))}})
	if got := huge.SampleLifetime(r, 0); got != Unlimited {
		t.Fatalf("infinite lifetime = %d, want Unlimited", got)
	}
}

// stationaryOnlineFraction estimates the long-run online fraction the
// model produces for a given availability by simulating sessions, each
// starting at the round the previous one ended.
func stationaryOnlineFraction(m AvailabilityModel, availability float64, r *rng.Rand, cycles int) float64 {
	var on, total int64
	online := true
	for i := 0; i < cycles*2; i++ {
		l := m.SessionLength(r, availability, online, total)
		// Cap absurd lengths so immortal states do not overflow.
		if l > 1<<40 {
			l = 1 << 40
		}
		if online {
			on += l
		}
		total += l
		online = !online
	}
	return float64(on) / float64(total)
}

func TestSessionModelStationaryFraction(t *testing.T) {
	m := sessionModel{}
	r := rng.New(4)
	for _, a := range []float64{0.33, 0.75, 0.87, 0.95} {
		got := stationaryOnlineFraction(m, a, r, 50000)
		// Rounding sessions up to >= 1 round biases short sessions; allow
		// a few percent.
		if math.Abs(got-a) > 0.04 {
			t.Errorf("session model availability %v: stationary fraction %v", a, got)
		}
	}
}

func TestBernoulliModelStationaryFraction(t *testing.T) {
	m := bernoulliModel{}
	r := rng.New(5)
	for _, a := range []float64{0.33, 0.75, 0.95} {
		got := stationaryOnlineFraction(m, a, r, 50000)
		if math.Abs(got-a) > 0.02 {
			t.Errorf("bernoulli availability %v: stationary fraction %v", a, got)
		}
	}
}

func TestSessionLengthsPositive(t *testing.T) {
	r := rng.New(6)
	for _, m := range []AvailabilityModel{sessionModel{}, bernoulliModel{}, alwaysOnline{}, diurnalModel{amplitude: 0.9}} {
		for _, a := range []float64{0.01, 0.33, 0.99, 1} {
			for _, online := range []bool{true, false} {
				for i := 0; i < 100; i++ {
					if l := m.SessionLength(r, a, online, int64(i)); l < 1 {
						t.Fatalf("%T: session length %d < 1", m, l)
					}
				}
			}
		}
	}
}

func TestAlwaysOnline(t *testing.T) {
	r := rng.New(7)
	m := alwaysOnline{}
	if m.SessionLength(r, 0.5, true, 0) != math.MaxInt64 {
		t.Fatal("online session must be effectively infinite")
	}
	if m.SessionLength(r, 0.5, false, 0) != 1 {
		t.Fatal("offline stub must be one round")
	}
}

// TestModelByName: every plain model name the campaigns, the CLIs and the
// name parser before the spec grammar accepted resolves through
// ParseAvailability to the model it named, and an unknown name is rejected.
func TestModelByName(t *testing.T) {
	checkParseAvailability(t, []parseCase{
		{"", sessionModel{}},
		{"session", sessionModel{}},
		{"bernoulli", bernoulliModel{}},
		{"always-online", alwaysOnline{}},
	}, []rejectCase{
		{"nope", ErrUnknownModel},
	})
}

// TestParseAvailability: every name AvailabilityNames lists parses, names are
// case-sensitive, and a parameter on a model that takes none is rejected;
// each rejection wraps one of the two sentinels. The spellings of each model
// are in TestModelByName and TestDiurnalModelByName.
func TestParseAvailability(t *testing.T) {
	names := AvailabilityNames()
	if want := []string{"session", "bernoulli", "always-online", "diurnal"}; !slices.Equal(names, want) {
		t.Errorf("AvailabilityNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		if _, err := ParseAvailability(name); err != nil {
			t.Errorf("ParseAvailability(%q): %v", name, err)
		}
	}
	checkParseAvailability(t, nil, []rejectCase{
		{"Diurnal", ErrUnknownModel},
		{"session:3", ErrBadSpec},
		{"bernoulli:p=0.5", ErrBadSpec},
	})
}

type parseCase struct {
	spec string
	want AvailabilityModel
}

type rejectCase struct {
	spec string
	want error
}

// checkParseAvailability asserts that each accepted spec parses to exactly
// its model and that each rejected spec fails with an error wrapping its
// sentinel.
func checkParseAvailability(t *testing.T, accept []parseCase, reject []rejectCase) {
	t.Helper()
	for _, tc := range accept {
		got, err := ParseAvailability(tc.spec)
		if err != nil || got != tc.want {
			t.Errorf("ParseAvailability(%q) = %#v, %v; want %#v", tc.spec, got, err, tc.want)
		}
	}
	for _, tc := range reject {
		if m, err := ParseAvailability(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("ParseAvailability(%q) = %#v, %v; want an error wrapping %v", tc.spec, m, err, tc.want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{}
	tr.AppendProfile(0, 1, EvJoin, NoProfile)
	tr.AppendProfile(5, 1, EvOffline, NoProfile)
	tr.AppendProfile(9, 1, EvOnline, NoProfile)
	tr.AppendProfile(20, 1, EvLeave, NoProfile)
	tr.AppendProfile(3, 2, EvJoin, NoProfile)
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestTraceSort(t *testing.T) {
	tr := &Trace{}
	tr.AppendProfile(5, 2, EvLeave, NoProfile)
	tr.AppendProfile(5, 1, EvJoin, NoProfile)
	tr.AppendProfile(1, 9, EvJoin, NoProfile)
	tr.Sort()
	if tr.Events[0].Round != 1 || tr.Events[1].Peer != 1 {
		t.Fatalf("sort order wrong: %+v", tr.Events)
	}
}

func TestTraceLifetimes(t *testing.T) {
	tr := &Trace{}
	tr.AppendProfile(0, 1, EvJoin, NoProfile)
	tr.AppendProfile(100, 1, EvLeave, NoProfile)
	tr.AppendProfile(10, 2, EvJoin, NoProfile) // never leaves
	tr.AppendProfile(50, 3, EvJoin, NoProfile)
	tr.AppendProfile(60, 3, EvLeave, NoProfile)
	lifetimes := tr.Lifetimes()
	if len(lifetimes) != 2 {
		t.Fatalf("lifetimes = %v", lifetimes)
	}
	if lifetimes[0] != 100 || lifetimes[1] != 10 {
		t.Fatalf("lifetimes = %v, want [100 10]", lifetimes)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"round,peer,kind\n1,2\n",
		"round,peer,kind\nx,2,join\n",
		"round,peer,kind\n1,y,join\n",
		"round,peer,kind\n1,2,what\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
	// A header and no events is as empty as no bytes at all, in both
	// formats.
	for _, c := range []string{"", "\n", "round,peer,kind\n", "round,peer,kind,profile\n\n"} {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil || err.Error() != "churn: empty trace file" {
			t.Errorf("ReadCSV(%q) error = %v, want churn: empty trace file", c, err)
		}
	}
	if _, err := ReadJSONL(strings.NewReader("\n")); err == nil || err.Error() != "churn: empty trace file" {
		t.Errorf("ReadJSONL of a blank file: error = %v, want churn: empty trace file", err)
	}
	// Headerless but valid data is accepted (first line parses as data).
	tr, err := ReadCSV(strings.NewReader("1,2,join\n"))
	if err != nil || len(tr.Events) != 1 {
		t.Fatalf("headerless read = %v, %v", tr, err)
	}
}

func TestEventKindString(t *testing.T) {
	if EvJoin.String() != "join" || EvLeave.String() != "leave" ||
		EvOnline.String() != "online" || EvOffline.String() != "offline" {
		t.Fatal("kind names wrong")
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind must format")
	}
	if _, err := parseEventKind("join"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseEventKind("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}
