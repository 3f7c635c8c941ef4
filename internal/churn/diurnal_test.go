package churn

import (
	"errors"
	"math"
	"testing"

	"p2pbackup/internal/rng"
)

func TestDiurnalAvailabilityAt(t *testing.T) {
	m := diurnalModel{amplitude: 0.5}
	// Peak: availability scaled up by (1 + amp).
	if got := m.availabilityAt(0.5, diurnalPeak); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("peak availability = %v, want 0.75", got)
	}
	// Trough (half a period later): scaled down by (1 - amp).
	if got := m.availabilityAt(0.5, diurnalPeak+12); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("trough availability = %v, want 0.25", got)
	}
	// One full period after the peak is the peak again.
	if got, want := m.availabilityAt(0.5, diurnalPeak+Day), m.availabilityAt(0.5, diurnalPeak); math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability not periodic: %v vs %v", got, want)
	}
	// Clamping at 1: a durable profile at full amplitude saturates.
	full := diurnalModel{amplitude: 1}
	if got := full.availabilityAt(0.95, diurnalPeak); got != 1 {
		t.Fatalf("clamped availability = %v, want 1", got)
	}
	// Never negative.
	for round := int64(0); round < Day; round++ {
		if a := full.availabilityAt(0.33, round); a < 0 || a > 1 {
			t.Fatalf("round %d: availability %v outside [0,1]", round, a)
		}
	}
	// Rounds before the peak (negative phase) are still in range.
	if a := m.availabilityAt(0.5, -6); a < 0 || a > 1 {
		t.Fatalf("negative-phase availability %v outside [0,1]", a)
	}
}

func TestDiurnalAmplitudeZeroMatchesBase(t *testing.T) {
	m := diurnalModel{amplitude: 0}
	r1, r2 := rng.New(7), rng.New(7)
	for i := 0; i < 200; i++ {
		round := int64(i * 3)
		online := i%2 == 0
		got := m.SessionLength(r1, 0.6, online, round)
		want := sessionModel{}.SessionLength(r2, 0.6, online, round)
		if got != want {
			t.Fatalf("i=%d: amp=0 diurnal %d != base %d", i, got, want)
		}
	}
}

func TestDiurnalSessionsFollowCycle(t *testing.T) {
	// Mean online session started at the peak must exceed the mean
	// online session started at the trough.
	m := diurnalModel{amplitude: 0.8}
	r := rng.New(42)
	mean := func(round int64) float64 {
		var sum int64
		const n = 4000
		for i := 0; i < n; i++ {
			sum += m.SessionLength(r, 0.5, true, round)
		}
		return float64(sum) / n
	}
	peak, trough := mean(diurnalPeak), mean(diurnalPeak+Day/2)
	if peak <= trough {
		t.Fatalf("mean online session at peak %v <= trough %v", peak, trough)
	}
}

// TestOnlyDiurnalReadsRound: the session model draws the same length at
// every starting round; the diurnal model draws what the session model
// draws at the availability the cycle assigns that round.
func TestOnlyDiurnalReadsRound(t *testing.T) {
	r1, r2 := rng.New(9), rng.New(9)
	if got, want := (sessionModel{}).SessionLength(r1, 0.5, true, 12345), (sessionModel{}).SessionLength(r2, 0.5, true, 0); got != want {
		t.Fatalf("session model at round 12345: %d, at round 0: %d", got, want)
	}
	m := diurnalModel{amplitude: 0.9}
	r3, r4 := rng.New(9), rng.New(9)
	if got, want := m.SessionLength(r3, 0.5, true, 6), (sessionModel{}).SessionLength(r4, m.availabilityAt(0.5, 6), true, 0); got != want {
		t.Fatalf("diurnal draw %d != session draw at the modulated availability %d", got, want)
	}
}

// TestDiurnalModelByName: every diurnal spelling resolves to the amplitude
// it names (0.6 when it names none), and a malformed, out-of-range or
// non-finite amplitude is rejected. NaN fails every comparison a range check
// can make, so it has a case of its own.
func TestDiurnalModelByName(t *testing.T) {
	checkParseAvailability(t, []parseCase{
		{"diurnal", diurnalModel{amplitude: 0.6}},
		{"diurnal:0", diurnalModel{amplitude: 0}},
		{"diurnal:0.25", diurnalModel{amplitude: 0.25}},
		{"diurnal:0.3", diurnalModel{amplitude: 0.3}},
		{"diurnal:0.6", diurnalModel{amplitude: 0.6}},
		{"diurnal:0.8", diurnalModel{amplitude: 0.8}},
		{"diurnal:0.9", diurnalModel{amplitude: 0.9}},
		{"diurnal:1", diurnalModel{amplitude: 1}},
		{"diurnal:amp=0.8", diurnalModel{amplitude: 0.8}},
	}, []rejectCase{
		{"diurnal:bogus", ErrBadSpec},
		{"diurnal:1.5", ErrBadSpec},
		{"diurnal:-0.1", ErrBadSpec},
		{"diurnal:NaN", ErrBadSpec},
		{"diurnal:+Inf", ErrBadSpec},
		{"diurnal:-Inf", ErrBadSpec},
		{"diurnal:period=12", ErrBadSpec},
	})
}

func TestDiurnalValidate(t *testing.T) {
	for _, amp := range []string{"0", "0.5", "1"} {
		if _, err := ParseAvailability("diurnal:" + amp); err != nil {
			t.Errorf("amplitude %s: %v", amp, err)
		}
	}
	for _, amp := range []string{"-0.1", "2", "NaN"} {
		if _, err := ParseAvailability("diurnal:" + amp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("amplitude %s: error %v, want one wrapping ErrBadSpec", amp, err)
		}
	}
}
