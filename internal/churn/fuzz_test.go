package churn

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"p2pbackup/internal/rng"
)

// FuzzParseAvailability throws arbitrary spec strings at the
// availability parser (tracegen's -avail flag, sim.Config.AvailSpec): it
// never panics, an accepted spec draws sessions of at least one round
// at every availability and starting round, and a rejected one says so
// through one of the two sentinels.
func FuzzParseAvailability(f *testing.F) {
	for _, name := range AvailabilityNames() {
		f.Add(name)
	}
	for _, s := range []string{"", "diurnal:0.3", "diurnal:amp=1", "diurnal:1.5", "diurnal:NaN",
		"diurnal:", "diurnal:amp=", "diurnal:0.5,0.5", "session:3", "Diurnal", ":::"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseAvailability(spec)
		if err != nil {
			if !errors.Is(err, ErrUnknownModel) && !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseAvailability(%q): error %v wraps neither sentinel", spec, err)
			}
			return
		}
		r := rng.New(1)
		for _, a := range []float64{0.01, 0.33, 0.95, 1} {
			for _, round := range []int64{0, 7, 18, 1 << 40} {
				for _, online := range []bool{true, false} {
					if l := m.SessionLength(r, a, online, round); l < 1 {
						t.Fatalf("ParseAvailability(%q): session length %d < 1 (availability %v, round %d)", spec, l, a, round)
					}
				}
			}
		}
	})
}

// FuzzReadCSV feeds arbitrary bytes to the CSV trace reader. Accepted
// traces must survive a WriteCSV -> ReadCSV round trip event-for-event:
// the readers feed replay campaigns, where a silent mutation would
// corrupt a paired comparison, so acceptance implies fidelity.
func FuzzReadCSV(f *testing.F) {
	f.Add("round,peer,kind,profile\n0,0,join,0\n0,1,join,-1\n5,0,offline,0\n")
	f.Add("round,peer,kind\n0,0,join\n3,0,leave\n3,0,join\n")
	f.Add("0,0,join,2\n")
	f.Add("round,peer,kind,profile\n")
	f.Add("")
	f.Add("0,0,nosuchkind,0\n")
	f.Add("x,0,join,0\n")
	f.Add("0,0,join,0,extra\n")
	f.Add("\n\n0,99,online,1\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, tr, true)
	})
}

// FuzzReadJSONL is FuzzReadCSV for the JSONL wire form.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"round":0,"peer":3,"kind":"join","profile":1}` + "\n")
	f.Add(`{"round":0,"peer":0,"kind":"join","profile":-1}` + "\n" +
		`{"round":7,"peer":0,"kind":"offline","profile":-1}` + "\n")
	f.Add(`{"round":0,"peer":0,"kind":"bogus"}` + "\n")
	f.Add(`{"round":"0"}` + "\n")
	f.Add("not json\n")
	f.Add("")
	f.Add("\n\n" + `{"round":2,"peer":1,"kind":"online","profile":0}` + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, tr, false)
	})
}

// roundTrip writes tr back out in the given format and re-reads it,
// requiring the events to match exactly.
func roundTrip(t *testing.T, tr *Trace, csv bool) {
	t.Helper()
	var buf bytes.Buffer
	var got *Trace
	var err error
	if csv {
		if err = tr.WriteCSV(&buf); err == nil {
			got, err = ReadCSV(&buf)
		}
	} else {
		if err = tr.WriteJSONL(&buf); err == nil {
			got, err = ReadJSONL(&buf)
		}
	}
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(got.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("round trip changed event %d: %+v -> %+v", i, tr.Events[i], got.Events[i])
		}
	}
}
