package churn

import (
	"math"
	"testing"

	"p2pbackup/internal/rng"
)

func TestDiurnalAvailabilityAt(t *testing.T) {
	m := DiurnalModel{Amplitude: 0.5, Period: Day, Peak: 0}
	// Peak: availability scaled up by (1 + amp).
	if got := m.AvailabilityAt(0.5, 0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("peak availability = %v, want 0.75", got)
	}
	// Trough (half a period later): scaled down by (1 - amp).
	if got := m.AvailabilityAt(0.5, 12); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("trough availability = %v, want 0.25", got)
	}
	// One full period after the peak is the peak again.
	if got, want := m.AvailabilityAt(0.5, Day), m.AvailabilityAt(0.5, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability not periodic: %v vs %v", got, want)
	}
	// Clamping at 1: a durable profile at full amplitude saturates.
	full := DiurnalModel{Amplitude: 1, Period: Day}
	if got := full.AvailabilityAt(0.95, full.Peak); got != 1 {
		t.Fatalf("clamped availability = %v, want 1", got)
	}
	// Never negative.
	for round := int64(0); round < Day; round++ {
		if a := full.AvailabilityAt(0.33, round); a < 0 || a > 1 {
			t.Fatalf("round %d: availability %v outside [0,1]", round, a)
		}
	}
	// Rounds before the peak (negative phase) are still in range.
	if a := m.AvailabilityAt(0.5, -6); a < 0 || a > 1 {
		t.Fatalf("negative-phase availability %v outside [0,1]", a)
	}
}

func TestDiurnalAmplitudeZeroMatchesBase(t *testing.T) {
	base := DefaultSessionModel()
	m := DiurnalModel{Base: base, Amplitude: 0, Period: Day}
	r1, r2 := rng.New(7), rng.New(7)
	for i := 0; i < 200; i++ {
		round := int64(i * 3)
		online := i%2 == 0
		got := m.SessionLengthAt(r1, 0.6, online, round)
		want := base.SessionLength(r2, 0.6, online)
		if got != want {
			t.Fatalf("i=%d: amp=0 diurnal %d != base %d", i, got, want)
		}
	}
}

func TestDiurnalSessionsFollowCycle(t *testing.T) {
	// Mean online session started at the peak must exceed the mean
	// online session started at the trough.
	m := DefaultDiurnalModel(0.8)
	r := rng.New(42)
	mean := func(round int64) float64 {
		var sum int64
		const n = 4000
		for i := 0; i < n; i++ {
			sum += m.SessionLengthAt(r, 0.5, true, round)
		}
		return float64(sum) / n
	}
	peak, trough := mean(m.Peak), mean(m.Peak+Day/2)
	if peak <= trough {
		t.Fatalf("mean online session at peak %v <= trough %v", peak, trough)
	}
}

func TestSessionLengthAtDispatch(t *testing.T) {
	// A plain model goes through the stateless path regardless of round.
	base := DefaultSessionModel()
	r1, r2 := rng.New(9), rng.New(9)
	if got, want := SessionLengthAt(base, r1, 0.5, true, 12345), base.SessionLength(r2, 0.5, true); got != want {
		t.Fatalf("plain dispatch %d != %d", got, want)
	}
	// A diurnal model goes through the time-aware path.
	m := DefaultDiurnalModel(0.9)
	r3, r4 := rng.New(9), rng.New(9)
	if got, want := SessionLengthAt(m, r3, 0.5, true, 6), m.SessionLengthAt(r4, 0.5, true, 6); got != want {
		t.Fatalf("diurnal dispatch %d != %d", got, want)
	}
}

func TestDiurnalModelByName(t *testing.T) {
	m, err := ModelByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(DiurnalModel); !ok {
		t.Fatalf("ModelByName(diurnal) = %T", m)
	}
	m, err = ModelByName("diurnal:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if d := m.(DiurnalModel); d.Amplitude != 0.25 {
		t.Fatalf("amplitude = %v, want 0.25", d.Amplitude)
	}
	if _, err := ModelByName("diurnal:bogus"); err == nil {
		t.Fatal("bad amplitude accepted")
	}
	if _, err := ModelByName("diurnal:1.5"); err == nil {
		t.Fatal("out-of-range amplitude accepted")
	}
	// NaN fails every comparison a range check can make.
	for _, name := range []string{"diurnal:NaN", "diurnal:+Inf", "diurnal:-Inf"} {
		if _, err := ModelByName(name); err == nil {
			t.Errorf("ModelByName(%q) accepted a non-finite amplitude", name)
		}
	}
}

func TestDiurnalValidate(t *testing.T) {
	if err := (DiurnalModel{Amplitude: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (DiurnalModel{Amplitude: -0.1}).Validate(); err == nil {
		t.Fatal("negative amplitude accepted")
	}
	if err := (DiurnalModel{Amplitude: 2}).Validate(); err == nil {
		t.Fatal("amplitude > 1 accepted")
	}
	if err := (DiurnalModel{Period: -3}).Validate(); err == nil {
		t.Fatal("negative period accepted")
	}
}
