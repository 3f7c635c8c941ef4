package experiments

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2pbackup/internal/rng"
	"p2pbackup/internal/sim"
)

// failureKind classifies why a worker attempt died, driving both the
// retry decision and the typed failure surfaced when retries run out.
type failureKind int

const (
	// failTransient is an unclassified process failure (e.g. wait error
	// with no exit status); retried.
	failTransient failureKind = iota
	// failPanic is a contained Go panic in the worker (exit code 2 with
	// "panic:" on stderr).
	failPanic
	// failOOMKill is a SIGKILL the supervisor did not send — on Linux,
	// almost always the kernel OOM killer.
	failOOMKill
	// failHang is a variant that overran its timeout or stopped
	// heartbeating and was killed.
	failHang
	// failExit is a nonzero worker exit that wasn't a panic.
	failExit
	// failProtocol is a worker that exited 0 without delivering a
	// result line.
	failProtocol
)

var failureKindNames = [...]string{"transient", "panic", "oom-kill", "hang", "exit", "protocol"}

// String names the classification for journals and failure messages.
func (k failureKind) String() string {
	if k >= 0 && int(k) < len(failureKindNames) {
		return failureKindNames[k]
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// retryPolicy bounds how a supervisor retries a failed variant:
// MaxAttempts total tries, exponential backoff from BaseBackoff capped
// at MaxBackoff, with deterministic jitter derived from the campaign
// seed and the (variant, attempt) pair — reproducible runs, but no two
// variants thundering back in lockstep.
type retryPolicy struct {
	MaxAttempts int           // total attempts per variant (0 = 3)
	BaseBackoff time.Duration // first retry delay (0 = 500ms)
	MaxBackoff  time.Duration // backoff ceiling (0 = 10s)
}

func (p retryPolicy) withDefaults() retryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 10 * time.Second
	}
	return p
}

// backoff returns the pause before the retry after the given failed
// attempt (1-based): Base·2^(attempt−1), capped, then scaled by a
// jitter factor in [1, 1.5) drawn from a stream keyed on (seed,
// variant, attempt).
func (p retryPolicy) backoff(seed uint64, variant, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	r := rng.New(rng.Derive(seed^0x5355_5045_5256, uint64(variant)<<16|uint64(attempt)))
	return d + time.Duration(r.Float64()*0.5*float64(d))
}

// Supervisor runs each variant of a Runner's campaign isolated in its
// own worker process, speaking the `p2psim -worker` protocol: the
// variant's materialised config goes in as JSON on stdin, heartbeats
// and a bit-exact result snapshot come back as JSON lines on stdout.
// Failed attempts are classified (panic / OOM-kill / hang / exit /
// transient) and retried per policy with exponential backoff; a variant
// that exhausts its retries becomes a typed EventFailed and the
// campaign continues. With a JournalPath every completed variant is
// appended (fsynced) to a checkpoint journal, and Resume replays
// journaled rows instead of re-running them. Because the config and the
// snapshot both round-trip exactly, a supervised campaign — even one
// suffering injected crashes — produces output byte-identical to the
// fault-free in-process run. The zero Supervisor runs the current
// executable with -worker appended (the p2psim arrangement), kills a
// worker silent for 30 s and tries each variant 3 times; the Runner's
// Parallelism bounds the worker processes.
type Supervisor struct {
	// VariantTimeout kills an attempt that runs longer (0 = no limit;
	// negative is an error).
	VariantTimeout time.Duration
	// JournalPath, when non-empty, is the checkpoint journal: one
	// fsynced JSON line per finished variant (status "ok" or "failed").
	JournalPath string
	// Resume loads JournalPath instead of truncating it, and re-runs
	// only variants without an "ok" entry for this spec's fingerprint.
	Resume bool

	// Package tests preset these. workerCmd is the worker argv (empty:
	// this executable with -worker); workerEnv entries are appended to
	// each worker's environment (e.g. the faultEnv injector);
	// heartbeatGrace kills an attempt whose worker stops heartbeating
	// for this long (0: 30 s; the worker heartbeats once a second);
	// retry is the per-variant retry policy (zero fields: 3 attempts,
	// 500ms base, 10s cap).
	workerCmd      []string
	workerEnv      []string
	heartbeatGrace time.Duration
	retry          retryPolicy
}

// checkTimeout refuses a negative VariantTimeout rather than run it as
// no limit.
func (s *Supervisor) checkTimeout() error {
	if s.VariantTimeout < 0 {
		return fmt.Errorf("experiments: variant timeout %s is negative", s.VariantTimeout)
	}
	return nil
}

// supervision is one campaign under a Supervisor: what its variants'
// attempts share.
type supervision struct {
	*Supervisor
	fp        string // the spec's fingerprint, which keys the journal
	seed      uint64 // the spec's seed, which keys the retry jitter
	tracePath string // the spec's trace, which a replaying config crosses by
	cfgs      []sim.Config
	panics    []*sim.PanicError // by variant: its materialisation panicked
	workerCmd []string
	retry     retryPolicy
	journal   *journalWriter
}

// start readies c to run under s, before any variant does: it refuses a
// campaign built by hand (the journal key and the trace path are its
// spec's), a variant whose config holds what has no wire form (probes,
// profiles, a trace the spec does not name) and a negative
// VariantTimeout; materialises every variant once; fills resumed (by
// variant) with the rows the journal already holds for this spec when
// resuming; and opens the journal for appending.
func (s *Supervisor) start(c Campaign, resumed []*Row, emit func(Event)) (*supervision, error) {
	if err := s.checkTimeout(); err != nil {
		return nil, err
	}
	if c.spec == nil {
		return nil, fmt.Errorf("experiments: campaign %q was not built by CampaignSpec.Build; its journal key and trace come from that spec", c.Name)
	}
	sv := &supervision{Supervisor: s, fp: c.spec.Fingerprint(), seed: c.spec.Seed, tracePath: c.spec.TracePath,
		cfgs: make([]sim.Config, len(c.Variants)), panics: make([]*sim.PanicError, len(c.Variants)),
		workerCmd: s.workerCmd, retry: s.retry.withDefaults()}
	for i, v := range c.Variants {
		cfg, pe := materialize(c, i)
		if v.Probes != nil || pe == nil && (len(cfg.Probes) > 0 || cfg.Profiles != nil || cfg.Replay != nil && sv.tracePath == "") {
			return nil, fmt.Errorf("experiments: campaign %q variant %q: probes, profiles and a trace the spec does not name cannot cross the worker process boundary; run in-process", c.Name, v.Name)
		}
		sv.cfgs[i], sv.panics[i] = cfg, pe
	}
	if len(sv.workerCmd) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("experiments: supervisor: locating worker executable: %w", err)
		}
		sv.workerCmd = []string{exe, "-worker"}
	}
	if s.JournalPath == "" {
		return sv, nil
	}
	if s.Resume {
		entries, skipped, err := readJournal(s.JournalPath)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			switch {
			case e.Fingerprint != sv.fp || e.Status != "ok" || e.Variant < 0 || e.Variant >= len(c.Variants):
			case sv.panics[e.Variant] != nil || check(e.Result, sv.cfgs[e.Variant]) != nil:
				skipped++ // no report could read it: as good as torn, the variant re-runs
			default:
				e.Result.Config = sv.cfgs[e.Variant]
				resumed[e.Variant] = &Row{Index: e.Variant, Name: c.Variants[e.Variant].Name, Config: e.Result.Config, Result: e.Result}
			}
		}
		if skipped > 0 {
			emit(Event{Kind: EventProgress, Campaign: c.Name, Variant: -1,
				Message: fmt.Sprintf("journal: skipped %d unparsable or incomplete line(s)", skipped)})
		}
	}
	var err error
	sv.journal, err = openJournal(s.JournalPath, s.Resume)
	return sv, err
}

// close closes the journal, if there is one.
func (sv *supervision) close() {
	if sv.journal != nil {
		sv.journal.f.Close()
	}
}

// variant is the pool's variantFunc under a supervisor: it drives
// variant i through the retry state machine, attempt → classify →
// (success | backoff and retry | exhaust), and journals the outcome. A
// variant out of attempts, or whose materialisation panicked, is a
// *variantFailure; a worker that cannot be spawned or a journal that
// cannot be written aborts the campaign.
func (sv *supervision) variant(ctx context.Context, c Campaign, i int, emit func(Event)) (*Row, error) {
	name, cfg := c.Variants[i].Name, sv.cfgs[i]
	if pe := sv.panics[i]; pe != nil {
		return nil, sv.failed(c, i, panicFailure(name, pe), pe)
	}
	var onRound func(done int64)
	if report := roundReport(c, i, emit); report != nil {
		onRound = func(done int64) { report(done, cfg.Rounds) }
	}
	var lastErr error
	lastClass := failTransient
	for attempt := 1; attempt <= sv.retry.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res, class, err := sv.runAttempt(ctx, cfg, i, attempt, onRound)
		if err == nil {
			if onRound != nil {
				onRound(cfg.Rounds) // the rounds since the last heartbeat
			}
			if err := sv.record(journalEntry{Campaign: c.Name, Variant: i, Name: name, Status: "ok", Attempts: attempt, Result: res}); err != nil {
				return nil, err
			}
			return &Row{Index: i, Name: name, Config: cfg, Result: res}, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err() // cancelled mid-attempt; the kill is ours, not a failure
		}
		if errors.Is(err, errSpawn) {
			return nil, err
		}
		lastErr, lastClass = err, class
		if attempt < sv.retry.MaxAttempts {
			pause := sv.retry.backoff(sv.seed, i, attempt)
			emit(Event{Kind: EventProgress, Campaign: c.Name, Variant: i, Name: name,
				Message: fmt.Sprintf("%s: attempt %d/%d failed (%s): %s; retrying in %s",
					name, attempt, sv.retry.MaxAttempts, class, firstLine(err), pause.Round(time.Millisecond))})
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}

	// Retries exhausted: graceful degradation. Journal the typed
	// failure and let the campaign continue.
	attempts := sv.retry.MaxAttempts
	return nil, sv.failed(c, i, &variantFailure{Class: lastClass, Attempts: attempts,
		Err:     fmt.Errorf("experiments: %s %q: %s after %d attempts: %w", c.Name, name, lastClass, attempts, lastErr),
		Message: fmt.Sprintf("%s: failed permanently (%s) after %d attempts: %s", name, lastClass, attempts, firstLine(lastErr))}, lastErr)
}

// failed journals variant i's permanent failure vf, whose last attempt
// died of cause, and returns vf.
func (sv *supervision) failed(c Campaign, i int, vf *variantFailure, cause error) error {
	if err := sv.record(journalEntry{Campaign: c.Name, Variant: i, Name: c.Variants[i].Name, Status: "failed",
		Class: vf.Class.String(), Attempts: vf.Attempts, Error: cause.Error()}); err != nil {
		return err
	}
	return vf
}

// record appends a variant's outcome to the journal, if there is one.
func (sv *supervision) record(e journalEntry) error {
	if sv.journal == nil {
		return nil
	}
	e.V, e.Fingerprint = 1, sv.fp
	if err := sv.journal.append(e); err != nil {
		return fmt.Errorf("experiments: checkpoint journal: %w", err)
	}
	return nil
}

// errSpawn marks a worker that could not even be started — an
// environment problem, not a variant problem, so it aborts the campaign
// instead of burning retries on every variant.
var errSpawn = errors.New("experiments: worker spawn failed")

// stderrTail keeps failure messages readable: panics print whole
// stacks, but classification only needs the head. What it keeps may
// span lines; the attempt's error and the journal carry all of it, a
// progress line only its first (firstLine).
func stderrTail(buf *bytes.Buffer) string {
	s := strings.TrimSpace(buf.String())
	if len(s) > 800 {
		s = s[:800] + " ..."
	}
	if s == "" {
		return "(no stderr)"
	}
	return s
}

// firstLine is err's message up to its first line break, marked as cut
// when there is more: a progress line stays one line when a worker's
// stderr (a panic's stack) is part of the error.
func firstLine(err error) string {
	msg, rest, cut := strings.Cut(err.Error(), "\n")
	if cut && strings.TrimSpace(rest) != "" {
		msg += " ..."
	}
	return msg
}

// runAttempt runs one worker process for (variant, attempt) and
// classifies the outcome. A nil error means res is the variant's
// result, complete for cfg, the variant's config, which it carries;
// otherwise the failureKind says what killed the attempt. onRound, when
// set, is told the round count of every heartbeat.
func (sv *supervision) runAttempt(ctx context.Context, cfg sim.Config, variant, attempt int, onRound func(int64)) (*sim.Result, failureKind, error) {
	attemptCtx := ctx
	if sv.VariantTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, sv.VariantTimeout)
		defer cancel()
	}
	cmd := exec.CommandContext(attemptCtx, sv.workerCmd[0], sv.workerCmd[1:]...)
	if len(sv.workerEnv) > 0 {
		cmd.Env = append(os.Environ(), sv.workerEnv...)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, failTransient, fmt.Errorf("%w: %v", errSpawn, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, failTransient, fmt.Errorf("%w: %v", errSpawn, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, failTransient, fmt.Errorf("%w: %v", errSpawn, err)
	}
	// A worker must heartbeat several times per grace window, or a
	// healthy-but-busy worker would be indistinguishable from a hung
	// one. Sub-second graces (tests) shrink the requested period to
	// match.
	grace := cmp.Or(sv.heartbeatGrace, 30*time.Second)
	period := max(min(time.Second, grace/4), 5*time.Millisecond)
	go func() {
		enc := json.NewEncoder(stdin)
		req := workerRequest{Config: cfg, Variant: variant, Attempt: attempt, HeartbeatMillis: int(period / time.Millisecond)}
		if cfg.Replay != nil {
			req.TracePath = sv.tracePath
		}
		_ = enc.Encode(req)
		stdin.Close()
	}()

	// Stall watchdog: any stdout line (heartbeat or result) counts as
	// liveness; silence beyond the grace kills the worker.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	var stalled atomic.Bool
	watchdogDone := make(chan struct{})
	go func() {
		t := time.NewTicker(max(grace/4, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-t.C:
				if time.Since(time.Unix(0, lastBeat.Load())) > grace {
					stalled.Store(true)
					_ = cmd.Process.Kill()
					return
				}
			}
		}
	}()

	var res *sim.Result
	var protoErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20) // focal-run snapshots carry long series
	for sc.Scan() {
		lastBeat.Store(time.Now().UnixNano())
		var m workerMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			protoErr = fmt.Errorf("undecodable worker line: %v", err)
			continue
		}
		switch {
		case m.Type == "result":
			res = m.Result
		case m.Type == "heartbeat" && onRound != nil:
			onRound(m.Round)
		}
	}
	if err := sc.Err(); err != nil && protoErr == nil {
		protoErr = err
	}
	waitErr := cmd.Wait()
	close(watchdogDone)

	resErr := check(res, cfg)
	switch {
	case waitErr == nil && resErr == nil:
		res.Config = cfg
		return res, 0, nil
	case attemptCtx.Err() == context.DeadlineExceeded:
		return nil, failHang, fmt.Errorf("variant overran its %s timeout", sv.VariantTimeout)
	case ctx.Err() != nil:
		return nil, failTransient, ctx.Err()
	case stalled.Load():
		return nil, failHang, fmt.Errorf("worker stopped heartbeating for %s", grace)
	case waitErr != nil:
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) {
			if st, ok := ee.Sys().(syscall.WaitStatus); ok && st.Signaled() && st.Signal() == syscall.SIGKILL {
				return nil, failOOMKill, fmt.Errorf("worker killed by SIGKILL (OOM killer?): %s", stderrTail(&stderr))
			}
			if ee.ExitCode() == 2 && strings.Contains(stderr.String(), "panic:") {
				return nil, failPanic, fmt.Errorf("worker panicked: %s", stderrTail(&stderr))
			}
			return nil, failExit, fmt.Errorf("worker exited %d: %s", ee.ExitCode(), stderrTail(&stderr))
		}
		return nil, failTransient, waitErr
	default:
		return nil, failProtocol, fmt.Errorf("worker exited 0 without a usable result: %v (%v)", resErr, protoErr)
	}
}

// ---------------------------------------------------------------------------
// Checkpoint journal

// journalEntry is one line of the checkpoint journal: a finished
// variant (status "ok", with its result snapshot) or a permanent
// failure (status "failed", with its classification). The fingerprint
// ties the entry to the exact campaign spec, so resuming never replays
// rows across campaign shapes.
type journalEntry struct {
	V           int         `json:"v"`
	Campaign    string      `json:"campaign"`
	Fingerprint string      `json:"fingerprint"`
	Variant     int         `json:"variant"`
	Name        string      `json:"name"`
	Status      string      `json:"status"`
	Class       string      `json:"class,omitempty"`
	Attempts    int         `json:"attempts"`
	Error       string      `json:"error,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// journalWriter appends fsynced JSON lines. Append-only + per-line
// fsync means a crash loses at most the line being written, and
// readJournal tolerates that torn tail.
type journalWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// openJournal opens (resume) or truncates (fresh run) the journal.
func openJournal(path string, resume bool) (*journalWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f, enc: json.NewEncoder(f)}, nil
}

func (j *journalWriter) append(e journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(e); err != nil {
		return err
	}
	return j.f.Sync()
}

// readJournal loads every parsable entry; a missing file is an empty
// journal. skipped counts unparsable lines (a SIGKILLed campaign can
// leave a torn final line — that variant simply re-runs).
func readJournal(path string) (entries []*journalEntry, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.V != 1 {
			skipped++
			continue
		}
		entries = append(entries, &e)
	}
	return entries, skipped, sc.Err()
}
