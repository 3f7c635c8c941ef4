package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// testWorkerEnv flips the test binary into worker mode: the supervisor
// tests re-exec os.Args[0] with this set, and TestMain routes the child
// straight into WorkerMain instead of the test runner. This is the same
// arrangement `p2psim -worker` provides in production.
const testWorkerEnv = "P2PSIM_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(testWorkerEnv) == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// microSpec is a four-variant campaign small enough to run a worker
// process in tens of milliseconds. Its overrides mirror microConfig.
func microSpec() CampaignSpec {
	return CampaignSpec{
		Kind:   "repair-delay",
		Knobs:  Knobs{Scale: ScaleSmoke, Seed: 3},
		Delays: []int{0, 6, 12, 24},
		Overrides: &ConfigOverrides{
			NumPeers: 100, Rounds: 300, TotalBlocks: 16, DataBlocks: 8,
			RepairThreshold: 10, Quota: 48, PoolSamplePerRound: 32, AcceptHorizon: 48,
		},
	}
}

// testSupervisor builds a supervisor that re-execs the test binary as
// its worker, with millisecond backoffs so retry tests stay fast.
func testSupervisor(env ...string) *Supervisor {
	return &Supervisor{
		workerCmd: []string{os.Args[0]},
		workerEnv: append([]string{testWorkerEnv + "=1"}, env...),
		retry:     retryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	}
}

// rowsDigest serialises everything a row consumer can observe — index,
// name, seed and the full encoded result — so two runs can be compared
// byte for byte.
func rowsDigest(t *testing.T, rows []Row) string {
	t.Helper()
	var b strings.Builder
	for _, r := range rows {
		raw, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatalf("marshal row %d: %v", r.Index, err)
		}
		fmt.Fprintf(&b, "%d %s seed=%d %s\n", r.Index, r.Name, r.Config.Seed, raw)
	}
	return b.String()
}

// ablationTSV renders microSpec's rows exactly as the registry's
// ablation-delay experiment does, for the bit-identical-output
// assertions.
func ablationTSV(t *testing.T, rows []Row) string {
	t.Helper()
	return renderTables(t, "ablation-delay", rows)["ablation_delay.tsv"]
}

// inProcessBaseline runs the spec's campaign on the in-process Runner.
func inProcessBaseline(t *testing.T, spec CampaignSpec) []Row {
	t.Helper()
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rows, err := collectRows(context.Background(), Runner{Parallelism: 2}, camp, nil)
	if err != nil {
		t.Fatalf("collectRows: %v", err)
	}
	return rows
}

func TestSupervisedMatchesInProcess(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	want := inProcessBaseline(t, spec)

	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: testSupervisor()}, camp, nil)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("supervised run returned %d rows, want %d", len(got), len(want))
	}
	if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
		t.Errorf("supervised rows differ from in-process rows:\nin-process:\n%s\nsupervised:\n%s", d1, d2)
	}
	if t1, t2 := ablationTSV(t, want), ablationTSV(t, got); t1 != t2 {
		t.Errorf("supervised TSV differs from in-process TSV:\n%s\nvs\n%s", t1, t2)
	}
}

// TestSupervisedRunsEditedVariant: a worker runs the config the parent
// materialised, so a campaign whose variant was edited after Build runs
// as edited under a supervisor, as it does in-process. A variant whose
// config sets Profiles, which has no wire form, is refused before any
// worker is spawned.
func TestSupervisedRunsEditedVariant(t *testing.T) {
	t.Parallel()
	camp, err := microSpec().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mutate := camp.Variants[0].Mutate
	camp.Variants[0].Mutate = func(cfg *sim.Config) {
		mutate(cfg)
		cfg.RepairDelay = 24
	}
	want, err := collectRows(context.Background(), Runner{Parallelism: 2}, camp, nil)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: testSupervisor()}, camp, nil)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
		t.Errorf("the edited variant ran differently under the supervisor:\nin-process:\n%s\nsupervised:\n%s", d1, d2)
	}

	camp.Variants[1].Mutate = func(cfg *sim.Config) { cfg.Profiles = churn.PaperProfiles() }
	sup := testSupervisor()
	sup.workerCmd = []string{filepath.Join(t.TempDir(), "no-worker")} // a spawn would fail the campaign
	sup.JournalPath = filepath.Join(t.TempDir(), "journal")
	_, err = collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: sup}, camp, nil)
	if err == nil || errors.Is(err, errSpawn) || !strings.Contains(err.Error(), "profiles") {
		t.Fatalf("variant with profiles: error = %v, want a refusal naming them", err)
	}
	if _, err := os.Stat(sup.JournalPath); !os.IsNotExist(err) {
		t.Errorf("refused campaign opened its journal (%v)", err)
	}
}

// TestSupervisedEventsMatchInProcess: one event contract for both
// modes. At Parallelism 1 the registry's micro ablation-delay campaign
// sends Options.Events the same stream in-process and supervised: its
// rows with their texts in variant order, then EventDone.
func TestSupervisedEventsMatchInProcess(t *testing.T) {
	t.Parallel()
	stream := func(sup *Supervisor) []string {
		var evs []string
		opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, Parallelism: 1, Supervisor: sup, Events: func(ev Event) {
			evs = append(evs, fmt.Sprintf("%d %d %q %q", ev.Kind, ev.Variant, ev.Name, ev.Message))
		}}
		if _, err := runShrunk("ablation-delay", opts, func(s *CampaignSpec) { *s = microSpec() }); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	in, sup := stream(nil), stream(testSupervisor())
	if len(in) != 5 || in[4] != fmt.Sprintf("%d -1 \"\" \"\"", EventDone) {
		t.Fatalf("in-process events %q, want four rows and EventDone", in)
	}
	if !slices.Equal(in, sup) {
		t.Errorf("events differ:\nin-process %q\nsupervised %q", in, sup)
	}
}

// TestSupervisedChaosDeterministic injects one fault of every class —
// panic, clean nonzero exit, self-SIGKILL (the OOM-killer signature)
// and a hang that never heartbeats — into the first attempt of each
// variant, and requires the retried campaign to produce output
// byte-identical to the fault-free in-process run.
func TestSupervisedChaosDeterministic(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	want := inProcessBaseline(t, spec)
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	sup := testSupervisor(faultEnv + "=panic@variant0|exit5@variant1|kill9@variant2|hang@variant3")
	sup.JournalPath = journal
	// Generous grace: race-instrumented test binaries on a loaded CI
	// machine can take most of a second just to start. The hang fault
	// never writes a byte, so it is detected at the grace deadline
	// regardless of how large the margin is.
	sup.heartbeatGrace = 3 * time.Second
	sup.VariantTimeout = 60 * time.Second

	var mu sync.Mutex
	var retries []string
	got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: sup}, camp, func(ev Event) {
		if ev.Kind == EventProgress && strings.Contains(ev.Message, "retrying") {
			mu.Lock()
			retries = append(retries, ev.Message)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("chaos run returned %d rows, want %d", len(got), len(want))
	}
	if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
		t.Errorf("chaos rows differ from fault-free in-process rows")
	}
	if t1, t2 := ablationTSV(t, want), ablationTSV(t, got); t1 != t2 {
		t.Errorf("chaos TSV differs from fault-free TSV:\n%s\nvs\n%s", t1, t2)
	}

	// Every fault class must have been seen and classified.
	all := strings.Join(retries, "\n")
	for _, class := range []string{"(panic)", "(exit)", "(oom-kill)", "(hang)"} {
		if !strings.Contains(all, class) {
			t.Errorf("no retry classified as %s in:\n%s", class, all)
		}
	}

	// The journal must record the second attempt succeeding for every
	// variant.
	entries, skipped, err := readJournal(journal)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if skipped != 0 {
		t.Errorf("journal skipped %d lines, want 0", skipped)
	}
	if len(entries) != len(camp.Variants) {
		t.Fatalf("journal has %d entries, want %d", len(entries), len(camp.Variants))
	}
	for _, e := range entries {
		if e.Status != "ok" {
			t.Errorf("variant %d journaled as %q, want ok", e.Variant, e.Status)
		}
		if e.Attempts != 2 {
			t.Errorf("variant %d succeeded on attempt %d, want 2 (one injected fault)", e.Variant, e.Attempts)
		}
	}
}

// TestSupervisedExhaustedRetries checks graceful degradation: a variant
// that fails every attempt becomes a typed EventFailed plus a summary
// line, and the rest of the campaign still completes.
func TestSupervisedExhaustedRetries(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	journal := filepath.Join(t.TempDir(), "fail.jsonl")
	sup := testSupervisor(faultEnv + "=exit7@variant1x9")
	sup.retry.MaxAttempts = 2
	sup.JournalPath = journal

	var mu sync.Mutex
	var failed []Event
	var summary string
	rows, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: sup}, camp, func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Kind == EventFailed:
			failed = append(failed, ev)
		case ev.Kind == EventProgress && strings.Contains(ev.Message, "failed permanently:"):
			summary = ev.Message
		}
	})
	if err != nil {
		t.Fatalf("run with permanent failure: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 survivors", len(rows))
	}
	for _, r := range rows {
		if r.Index == 1 {
			t.Errorf("failed variant 1 produced a row")
		}
	}
	if len(failed) != 1 {
		t.Fatalf("got %d EventFailed, want 1", len(failed))
	}
	ev := failed[0]
	if ev.Variant != 1 || ev.Err == nil || !strings.Contains(ev.Message, "(exit)") {
		t.Errorf("EventFailed = variant %d, message %q, err %v; want variant 1 classified (exit)", ev.Variant, ev.Message, ev.Err)
	}
	if !strings.Contains(summary, "1/4 variant(s) failed permanently") {
		t.Errorf("missing or wrong failure summary: %q", summary)
	}

	entries, _, err := readJournal(journal)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	status := map[string]int{}
	for _, e := range entries {
		status[e.Status]++
	}
	if ok, failedN := status["ok"], status["failed"]; ok != 3 || failedN != 1 {
		t.Errorf("journal status ok=%d failed=%d, want 3/1", ok, failedN)
	}
}

// TestSupervisedResumeSkipsCompleted interrupts a campaign (one variant
// poisoned so it fails, three succeed and are journaled), then resumes
// with every previously-completed variant poisoned: if resume re-ran
// any of them the run would fail, so a byte-identical final result
// proves only the missing variant executed. The same resume runs over
// testdata/journal_parent.jsonl, the journal of that interrupted run as
// written before the collector dropped its per-profile totals, per-day
// repair series and shock-victim count: entries carrying those keys
// are still served.
// TestSupervisedPanicIsOneProgressLine: a worker panic's stderr — the
// panic value, then a goroutine stack — stays whole in the attempt's
// error, and the progress line of the failed attempt, like the
// permanent failure's message, is its first line.
func TestSupervisedPanicIsOneProgressLine(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sup := testSupervisor(faultEnv + "=panic@variant0x9")
	sup.retry.MaxAttempts = 2

	var mu sync.Mutex
	var retried, failed []Event
	if _, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: sup}, camp, func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Kind == EventFailed:
			failed = append(failed, ev)
		case ev.Kind == EventProgress && strings.Contains(ev.Message, "retrying"):
			retried = append(retried, ev)
		}
	}); err != nil {
		t.Fatalf("run with a panicking variant: %v", err)
	}
	if len(retried) != 1 || len(failed) != 1 {
		t.Fatalf("%d retry lines and %d failures, want one each", len(retried), len(failed))
	}
	for _, msg := range []string{retried[0].Message, failed[0].Message} {
		if strings.Contains(msg, "\n") || !strings.Contains(msg, "(panic)") || !strings.Contains(msg, "worker panicked: panic: ") {
			t.Errorf("progress line %q: want one line naming the panic", msg)
		}
	}
	if full := failed[0].Err.Error(); !strings.Contains(full, "\ngoroutine ") {
		t.Errorf("the failure's error lost the worker's stack:\n%s", full)
	}
}

// TestRoundReporterMatchesRoundProbe: whatever round counts a worker's
// heartbeats carry — none, sparse, repeated, past the end, restarting at
// zero on a retry — followed by the run's last round, the reporter
// reports the rounds it reports when the in-process round probe feeds it
// every round: each tenth of the run, in order.
func TestRoundReporterMatchesRoundProbe(t *testing.T) {
	for _, rounds := range []int64{1, 7, 9, 10, 240, 245, 1000} {
		var want, tenths []int64
		in := roundReporter{emit: func(r, _ int64) { want = append(want, r) }}
		probe := roundProbe{fn: func(done int64) { in.reach(done, rounds) }}
		for r := int64(0); r < rounds; r++ {
			probe.OnRoundEnd(sim.RoundEndEvent{Round: r})
		}
		for r, step := max(rounds/10, 1), max(rounds/10, 1); r <= rounds; r += step {
			tenths = append(tenths, r)
		}
		if !slices.Equal(want, tenths) {
			t.Errorf("rounds %d: the round probe's reports %v, want %v", rounds, want, tenths)
		}
		for _, beats := range [][]int64{
			nil,
			{0, rounds / 3, rounds / 3, rounds/2 + 1},
			{rounds / 2, 0, rounds / 4, rounds + 50},
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
		} {
			var got []int64
			rep := roundReporter{emit: func(r, _ int64) { got = append(got, r) }}
			for _, b := range beats {
				rep.reach(b, rounds)
			}
			rep.reach(rounds, rounds)
			if !slices.Equal(got, want) {
				t.Errorf("rounds %d, heartbeats %v: reported %v, the round probe %v", rounds, beats, got, want)
			}
		}
	}
}

func TestSupervisedResumeSkipsCompleted(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	want := inProcessBaseline(t, spec)
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	interrupted := func(t *testing.T) string {
		journal := filepath.Join(t.TempDir(), "resume.jsonl")
		first := testSupervisor(faultEnv + "=exit3@variant2x9")
		first.retry.MaxAttempts = 1
		first.JournalPath = journal
		rows, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: first}, camp, nil)
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
		if len(rows) != 3 {
			t.Fatalf("first run returned %d rows, want 3", len(rows))
		}
		return journal
	}
	parentWritten := func(t *testing.T) string {
		raw, err := os.ReadFile("testdata/journal_parent.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"prof_repairs"`)) || !bytes.Contains(raw, []byte(`"shock_victims"`)) {
			t.Fatal("fixture lacks the dropped collector keys")
		}
		journal := filepath.Join(t.TempDir(), "resume.jsonl")
		if err := os.WriteFile(journal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return journal
	}

	for _, tc := range []struct {
		name    string
		journal func(*testing.T) string
	}{{"interrupted", interrupted}, {"parent-written", parentWritten}} {
		t.Run(tc.name, func(t *testing.T) {
			journal := tc.journal(t)
			// Poison all three completed variants; only variant 2 may run.
			second := testSupervisor(faultEnv + "=panic@variant0x9|panic@variant1x9|panic@variant3x9")
			second.retry.MaxAttempts = 1
			second.JournalPath = journal
			second.Resume = true
			var mu sync.Mutex
			resumed := map[int]bool{}
			got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: second}, camp, func(ev Event) {
				if ev.Kind == EventProgress && strings.Contains(ev.Message, "resumed from journal") {
					mu.Lock()
					resumed[ev.Variant] = true
					mu.Unlock()
				}
			})
			if err != nil {
				t.Fatalf("resume run: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("resume returned %d rows, want %d", len(got), len(want))
			}
			if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
				t.Errorf("resumed rows differ from fault-free in-process rows")
			}
			wantResumed := map[int]bool{0: true, 1: true, 3: true}
			if len(resumed) != len(wantResumed) {
				t.Errorf("resumed variants %v, want %v", resumed, wantResumed)
			}
			for v := range wantResumed {
				if !resumed[v] {
					t.Errorf("variant %d was not resumed from the journal", v)
				}
			}
		})
	}
}

// TestSupervisedCancelThenResume kills a campaign mid-flight via
// context cancellation after the first completed variant, then resumes:
// completed variants must not re-run and the merged output must match
// the fault-free baseline bit for bit.
func TestSupervisedCancelThenResume(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	want := inProcessBaseline(t, spec)
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	journal := filepath.Join(t.TempDir(), "interrupt.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := testSupervisor()
	first.JournalPath = journal
	_, err = collectRows(ctx, Runner{Parallelism: 1, Supervisor: first}, camp, func(ev Event) {
		if ev.Kind == EventRow {
			cancel() // interrupt as soon as anything completes
		}
	})
	if err == nil {
		t.Fatalf("cancelled run returned nil error")
	}

	entries, _, err := readJournal(journal)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(entries) == 0 || len(entries) == len(camp.Variants) {
		t.Fatalf("interrupted journal has %d entries, want partial coverage of %d variants", len(entries), len(camp.Variants))
	}
	var poison []string
	done := map[int]bool{}
	for _, e := range entries {
		if e.Status == "ok" {
			done[e.Variant] = true
			poison = append(poison, fmt.Sprintf("panic@variant%dx9", e.Variant))
		}
	}
	sort.Strings(poison)

	second := testSupervisor(faultEnv + "=" + strings.Join(poison, "|"))
	second.retry.MaxAttempts = 1
	second.JournalPath = journal
	second.Resume = true
	var mu sync.Mutex
	resumed := map[int]bool{}
	got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: second}, camp, func(ev Event) {
		if ev.Kind == EventProgress && strings.Contains(ev.Message, "resumed from journal") {
			mu.Lock()
			resumed[ev.Variant] = true
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("resume returned %d rows, want %d", len(got), len(want))
	}
	if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
		t.Errorf("post-interrupt rows differ from fault-free in-process rows")
	}
	if len(resumed) != len(done) {
		t.Errorf("resumed %v, want exactly the journaled set %v", resumed, done)
	}
	for v := range done {
		if !resumed[v] {
			t.Errorf("journaled variant %d re-ran instead of resuming", v)
		}
	}
}

// TestJournalToleratesTornTail simulates a SIGKILL mid-append (a torn
// final line) and checks that resume skips the fragment and re-runs
// only that variant.
func TestJournalToleratesTornTail(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	want := inProcessBaseline(t, spec)
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	journal := filepath.Join(t.TempDir(), "torn.jsonl")

	first := testSupervisor()
	first.JournalPath = journal
	if _, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: first}, camp, nil); err != nil {
		t.Fatalf("first run: %v", err)
	}

	// Tear off the last journal line mid-JSON, as a crash during the
	// fsynced append would, and null the first line's collector: that
	// entry parses, but no report could read it.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	var entry journalEntry
	if err := json.Unmarshal(lines[0], &entry); err != nil {
		t.Fatal(err)
	}
	entry.Result.Collector = nil
	nulled, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(nulled, []byte(`"status":"ok","attempts":1,"result":{"collector":null,`)) {
		t.Fatalf("nulled line = %s", nulled)
	}
	last := lines[len(lines)-1]
	torn := slices.Concat(nulled, []byte("\n"), bytes.Join(lines[1:len(lines)-1], nil), last[:len(last)/3])
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}
	entries, skipped, err := readJournal(journal)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if skipped != 1 {
		t.Errorf("readJournal skipped %d lines, want 1", skipped)
	}
	if len(entries) != len(camp.Variants)-1 {
		t.Errorf("torn journal has %d whole entries, want %d", len(entries), len(camp.Variants)-1)
	}

	second := testSupervisor()
	second.JournalPath = journal
	second.Resume = true
	var skipMsgs []string
	got, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: second}, camp, func(ev Event) {
		if strings.HasPrefix(ev.Message, "journal: skipped") {
			skipMsgs = append(skipMsgs, ev.Message)
		}
	})
	if err != nil {
		t.Fatalf("resume over torn journal: %v", err)
	}
	if want := []string{"journal: skipped 2 unparsable or incomplete line(s)"}; !slices.Equal(skipMsgs, want) {
		t.Errorf("skip messages = %q, want %q", skipMsgs, want)
	}
	if d1, d2 := rowsDigest(t, want), rowsDigest(t, got); d1 != d2 {
		t.Errorf("rows after torn-journal resume differ from baseline")
	}
	for _, tb := range campaignByKind(spec.Kind).tables {
		var b bytes.Buffer
		if err := tb.write(&b, got); err != nil {
			t.Fatalf("%s: %v", tb.file, err)
		}
	}
}

func TestSupervisorRejectsProbes(t *testing.T) {
	t.Parallel()
	spec := microSpec()
	camp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	camp.Variants[0].Probes = func() []sim.Probe { return nil }
	if _, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: testSupervisor()}, camp, nil); err == nil {
		t.Fatalf("probed campaign accepted; want error")
	}
	// So is a campaign built by hand: no spec for workers to rebuild it by.
	byHand := Campaign{Name: camp.Name, Base: camp.Base, Variants: camp.Variants[1:]}
	if _, err := collectRows(context.Background(), Runner{Supervisor: testSupervisor()}, byHand, nil); err == nil ||
		!strings.Contains(err.Error(), "not built by CampaignSpec.Build") {
		t.Fatalf("hand-built campaign: error = %v, want a refusal", err)
	}
	// A negative timeout is refused too, not run as no limit.
	camp.Variants[0].Probes = nil
	sup := testSupervisor()
	sup.VariantTimeout = -30 * time.Minute
	if _, err := collectRows(context.Background(), Runner{Parallelism: 2, Supervisor: sup}, camp, nil); err == nil || !strings.Contains(err.Error(), "-30m0s is negative") {
		t.Fatalf("negative variant timeout: error = %v, want one naming it", err)
	}
}

func TestParseFaults(t *testing.T) {
	t.Parallel()
	faults, err := parseFaults("panic@variant3|hang@variant5x2|exit2@variant1|kill9@variant0")
	if err != nil {
		t.Fatalf("parseFaults: %v", err)
	}
	want := []fault{
		{kind: "panic", variant: 3, attempts: 1},
		{kind: "hang", variant: 5, attempts: 2},
		{kind: "exit", exitCode: 2, variant: 1, attempts: 1},
		{kind: "kill9", variant: 0, attempts: 1},
	}
	if len(faults) != len(want) {
		t.Fatalf("got %d faults, want %d", len(faults), len(want))
	}
	for i, f := range faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	if fs, err := parseFaults(""); err != nil || fs != nil {
		t.Errorf("empty spec: got %v, %v; want nil, nil", fs, err)
	}
	for _, bad := range []string{"panic", "panic@3", "boom@variant1", "exit0@variant1", "exit9999@variant2", "panic@variantx", "hang@variant1x0"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) accepted; want error", bad)
		}
	}
}

func TestWorkerMainRejectsBadInput(t *testing.T) {
	t.Parallel()
	var out, errw bytes.Buffer
	if code := WorkerMain(strings.NewReader("{"), &out, &errw); code != 1 {
		t.Errorf("truncated request: exit %d, want 1", code)
	}
	cfg := microConfig()
	cfg.NumPeers = 1
	for _, tc := range []struct {
		name, want string
		req        workerRequest
	}{
		{"invalid config", "NumPeers = 1 too small", workerRequest{Config: cfg, Attempt: 1}},
		{"missing trace", "no such file", workerRequest{Config: microConfig(), TracePath: filepath.Join(t.TempDir(), "none.jsonl"), Attempt: 1}},
	} {
		req, _ := json.Marshal(tc.req)
		out.Reset()
		errw.Reset()
		if code := WorkerMain(bytes.NewReader(req), &out, &errw); code != 1 || out.Len() != 0 {
			t.Errorf("%s: exit %d with %d bytes out, want exit 1 and nothing", tc.name, code, out.Len())
		}
		if !strings.Contains(errw.String(), tc.want) {
			t.Errorf("%s: stderr %q, want %q", tc.name, errw.String(), tc.want)
		}
	}
}

func TestRetryBackoffDeterministic(t *testing.T) {
	t.Parallel()
	p := retryPolicy{}.withDefaults()
	for variant := 0; variant < 3; variant++ {
		prev := time.Duration(0)
		for attempt := 1; attempt <= 4; attempt++ {
			d1 := p.backoff(3, variant, attempt)
			d2 := p.backoff(3, variant, attempt)
			if d1 != d2 {
				t.Errorf("backoff(3, %d, %d) not deterministic: %v vs %v", variant, attempt, d1, d2)
			}
			base := p.BaseBackoff << (attempt - 1)
			if base > p.MaxBackoff {
				base = p.MaxBackoff
			}
			if d1 < base || d1 >= base+base/2+time.Nanosecond {
				t.Errorf("backoff(3, %d, %d) = %v outside [%v, 1.5·%v)", variant, attempt, d1, base, base)
			}
			if d1 < prev {
				// jitter can reorder only within a factor of 1.5
				if prev > d1*3/2 {
					t.Errorf("backoff shrank too much: attempt %d %v after %v", attempt, d1, prev)
				}
			}
			prev = d1
		}
	}
}
