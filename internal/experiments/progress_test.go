package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The progress text p2psim prints (what Options.Progress received
// before it folded into Events), recorded at the commit before the
// fold. Never regenerate a list: a message that moves is a changed
// command-line output.

// focalProgress is TestRunFocal's: the round heartbeats of the focal
// run cut to 240 rounds.
var focalProgress = []string{
	"focal run: round 24/240",
	"focal run: round 48/240",
	"focal run: round 72/240",
	"focal run: round 96/240",
	"focal run: round 120/240",
	"focal run: round 144/240",
	"focal run: round 168/240",
	"focal run: round 192/240",
	"focal run: round 216/240",
	"focal run: round 240/240",
}

// progressLog returns an Options.Events sink and the text it collects:
// the message of every progress and row event that has one, as p2psim
// prints them.
func progressLog() (func(Event), *[]string) {
	var msgs []string
	return func(ev Event) {
		if ev.Message != "" && (ev.Kind == EventProgress || ev.Kind == EventRow) {
			msgs = append(msgs, ev.Message)
		}
	}, &msgs
}

// TestProgressTextPinned holds the registry's progress text to the
// parent's: a micro two-threshold fig1 (a line per finished row), the
// estimator ablation (the recording line, then its rows), and a
// supervised resume over testdata/journal_parent.jsonl with a torn line
// appended (the skip count, three variants served from the journal,
// then the one that runs). One in-process worker keeps rows in variant
// order. The parent emitted the resumed rows in map order; they come in
// variant order now, the same set. The focal run cut to 240 rounds under
// a supervisor prints TestRunFocal's in-process heartbeats, from its
// worker's (the parent printed none there).
func TestProgressTextPinned(t *testing.T) {
	micro := microSpec().Overrides
	raw, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	if err := os.WriteFile(journal, append(raw, `{"v":1,"campaign":"rep`...), 0o644); err != nil {
		t.Fatal(err)
	}
	resume := testSupervisor()
	resume.JournalPath, resume.Resume = journal, true

	for _, tc := range []struct {
		id    string
		sup   *Supervisor
		tweak func(*CampaignSpec)
		want  []string
	}{
		{"fig1", nil, func(s *CampaignSpec) { s.Thresholds, s.Overrides = []int{9, 13}, micro }, []string{
			"threshold 9 done: 51 repairs, 21 losses",
			"threshold 13 done: 995 repairs, 1 losses",
		}},
		{"ablation-estimator", nil, func(s *CampaignSpec) { s.Overrides = micro }, []string{
			"recording 300-round churn trace for the replay block",
			`estimator "iid/age" done: 77 repairs, 4 losses`,
			`estimator "iid/estimator:pareto" done: 147 repairs, 8 losses`,
			`estimator "iid/estimator:empirical" done: 56 repairs, 5 losses`,
			`estimator "iid/monitored-availability" done: 111 repairs, 14 losses`,
			`estimator "diurnal/age" done: 492 repairs, 73 losses`,
			`estimator "diurnal/estimator:pareto" done: 349 repairs, 38 losses`,
			`estimator "diurnal/estimator:empirical" done: 350 repairs, 51 losses`,
			`estimator "diurnal/monitored-availability" done: 362 repairs, 54 losses`,
			`estimator "replay/age" done: 298 repairs, 6 losses`,
			`estimator "replay/estimator:pareto" done: 280 repairs, 3 losses`,
			`estimator "replay/estimator:empirical" done: 329 repairs, 8 losses`,
			`estimator "replay/monitored-availability" done: 178 repairs, 6 losses`,
		}},
		{"ablation-delay", resume, func(s *CampaignSpec) { s.Delays, s.Overrides = []int{0, 6, 12, 24}, micro }, []string{
			"journal: skipped 1 unparsable or incomplete line(s)",
			"delay=0h: resumed from journal",
			`repair-delay "delay=0h" done: 77 repairs, 4 losses`,
			"delay=6h: resumed from journal",
			`repair-delay "delay=6h" done: 12 repairs, 61 losses`,
			"delay=24h: resumed from journal",
			`repair-delay "delay=24h" done: 0 repairs, 137 losses`,
			`repair-delay "delay=12h" done: 0 repairs, 26 losses`,
		}},
		{"fig3", testSupervisor(), func(s *CampaignSpec) { s.Overrides = &ConfigOverrides{Rounds: 240} }, focalProgress},
	} {
		t.Run(tc.id, func(t *testing.T) {
			events, msgs := progressLog()
			opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, Parallelism: 1, Supervisor: tc.sup, Events: events}
			if _, err := runShrunk(tc.id, opts, tc.tweak); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(*msgs, tc.want) {
				t.Errorf("progress text\n%q\nparent\n%q", *msgs, tc.want)
			}
		})
	}
}
