package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"

	"p2pbackup/internal/sim"
)

// Variant is one named point of a Campaign: a label, an optional
// explicit seed, and a mutation of the campaign's base configuration.
type Variant struct {
	// Name labels the variant in events, rows and reports.
	Name string
	// Seed, when non-zero, is the exact seed for this variant's run;
	// zero keeps the base config's seed. Campaign constructors set a
	// seed derived from the base seed and the variant's identity so
	// every point is independently reproducible.
	Seed uint64
	// Mutate adjusts the already-seeded base config for this variant.
	// It runs on a copy; it may also override the seed.
	Mutate func(*sim.Config)
	// Probes, when non-nil, builds fresh probes to attach to this
	// variant's run, after Mutate. It is a factory rather than a slice
	// because probes are stateful and variants run concurrently.
	Probes func() []sim.Probe
}

// Campaign is a declarative batch of simulation runs: one base config
// and the list of variants to execute over it. Campaigns are data; the
// Runner supplies the execution policy (parallelism, process isolation,
// cancellation, event delivery).
type Campaign struct {
	Name     string
	Base     sim.Config
	Variants []Variant
	// spec is the recipe CampaignSpec.Build made the campaign from; nil
	// for one built by hand. A supervisor keys its journal by it and
	// hands workers the trace it names.
	spec *CampaignSpec
}

// EventKind tags a Runner event.
type EventKind int

const (
	// EventProgress is a textual progress report: a one-run campaign's
	// round heartbeats, a supervisor's retries and resumes, the closing
	// summary of failed variants.
	EventProgress EventKind = iota
	// EventRow reports one completed variant together with its result.
	EventRow
	// EventDone is the final event of a campaign stream; Err carries
	// the campaign error, if any.
	EventDone
	// EventFailed reports a variant that crashed (panic in-process, or
	// exhausted its retries under the supervisor) and was contained:
	// Err carries the typed failure — *sim.PanicError for an in-process
	// panic — and the campaign continues with its remaining variants.
	EventFailed
)

// Event is one element of a campaign's typed event stream.
type Event struct {
	Kind     EventKind
	Campaign string
	Variant  int    // variant index, -1 for campaign-scoped events
	Name     string // variant name, "" for campaign-scoped events
	// Message is the text of an EventProgress or EventFailed, and of an
	// EventRow RunCtx forwards from a campaign of several variants;
	// p2psim prints progress and row texts unless -quiet.
	Message string
	Row     *Row  // completed run (EventRow)
	Err     error // terminal error (EventDone) or contained failure (EventFailed)
}

// Row is one completed variant run.
type Row struct {
	Index  int
	Name   string
	Config sim.Config // the exact config the run used (seeded and mutated)
	Result *sim.Result
}

// Runner executes campaigns over one bounded pool of variants. The zero
// value is ready to use: NumCPU variants at a time, each in this process.
// A one-run campaign reports its progress in round heartbeats.
type Runner struct {
	// Parallelism bounds concurrent variants; values below 1 mean
	// runtime.NumCPU().
	Parallelism int
	// Supervisor, when non-nil, runs each variant in a worker process it
	// supervises instead of in this process, with bit-identical rows. The
	// campaign must come from CampaignSpec.Build, whose spec keys the
	// journal.
	Supervisor *Supervisor
}

// variantFunc turns variant i of c into its row, sending the variant's
// progress to emit: runVariant's in-process wrapper, or a supervisor's
// attempt loop. A *variantFailure error is contained; any other aborts
// the campaign.
type variantFunc func(ctx context.Context, c Campaign, i int, emit func(Event)) (*Row, error)

// variantFailure is a variant the campaign survives losing: one that
// panicked in this process, or ran out of attempts under a supervisor.
// The pool reports it as an EventFailed carrying Message and Err, and
// names it in the campaign's closing summary.
type variantFailure struct {
	Class    failureKind
	Attempts int
	Err      error
	Message  string
}

func (f *variantFailure) Error() string { return f.Err.Error() }

// reportsRounds reports whether a campaign tells its progress in round
// heartbeats: a one-run campaign has no rows to tell it by.
func reportsRounds(c Campaign) bool { return len(c.Variants) == 1 }

// roundProbe calls its func with the number of rounds completed at the
// end of every round.
type roundProbe struct {
	sim.BaseProbe
	fn func(done int64)
}

// ProbeEvents implements sim.EventDeclarer: round ends only.
func (roundProbe) ProbeEvents() sim.EventSet { return sim.EventRoundEnd }

// OnRoundEnd implements sim.Probe.
func (p roundProbe) OnRoundEnd(e sim.RoundEndEvent) { p.fn(e.Round + 1) }

// roundReporter turns counts of rounds done into a variant's round
// heartbeats: each tenth of the run once and in order, however far
// apart the counts come, and once across retries. The in-process round
// probe feeds it every round, a supervisor its worker's heartbeats.
type roundReporter struct {
	reported int64
	emit     func(round, rounds int64)
}

// reach reports the tenths of rounds up to done not yet reported.
func (r *roundReporter) reach(done, rounds int64) {
	step := max(rounds/10, 1)
	for next := r.reported + step; next <= min(done, rounds); next += step {
		r.emit(next, rounds)
		r.reported = next
	}
}

// roundReport is the reach of variant i's roundReporter when c reports
// rounds, nil otherwise.
func roundReport(c Campaign, i int, emit func(Event)) func(done, rounds int64) {
	if !reportsRounds(c) {
		return nil
	}
	name := c.Variants[i].Name
	rep := &roundReporter{emit: func(round, rounds int64) {
		emit(Event{Kind: EventProgress, Campaign: c.Name, Variant: i, Name: name,
			Message: fmt.Sprintf("%s: round %d/%d", name, round, rounds)})
	}}
	return rep.reach
}

// Run executes the campaign and returns its rows ordered by variant
// index. It blocks until every variant finished or ctx is cancelled;
// on error or cancellation the partial rows are discarded and the
// first error (lowest variant index, or ctx.Err()) is returned. A
// variant that fails is contained, not fatal: its EventFailed is
// visible on Stream, and Run returns the surviving variants' rows —
// callers that need the failure detail should consume Stream. A
// campaign none of whose variants survived is an error.
func (r Runner) Run(ctx context.Context, c Campaign) ([]Row, error) {
	return collectRows(ctx, r, c, nil)
}

// Stream executes the campaign in the background and returns its typed
// event stream: zero or more EventProgress/EventRow/EventFailed events
// (rows arrive in completion order, not index order) terminated by
// exactly one EventDone, after which the channel closes. The caller
// must drain the channel; cancel ctx to stop early — in-flight
// simulations abort within a few rounds and EventDone reports ctx.Err().
func (r Runner) Stream(ctx context.Context, c Campaign) <-chan Event {
	events := make(chan Event)
	go r.execute(ctx, c, events)
	return events
}

// collectRows drains a campaign stream, forwarding every event to sink
// (when non-nil), and returns the rows ordered by variant index.
func collectRows(ctx context.Context, r Runner, c Campaign, sink func(Event)) ([]Row, error) {
	var (
		rows []Row
		err  error
	)
	for ev := range r.Stream(ctx, c) {
		if sink != nil {
			sink(ev)
		}
		switch ev.Kind {
		case EventRow:
			rows = append(rows, *ev.Row)
		case EventDone:
			err = ev.Err
		}
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Index, b.Index) })
	return rows, nil
}

// execute is the variant pool every campaign runs in, in-process or
// supervised: the two differ only in the variantFunc.
func (r Runner) execute(ctx context.Context, c Campaign, events chan<- Event) {
	defer close(events)
	if ctx == nil {
		ctx = context.Background()
	}
	emit := func(ev Event) { events <- ev }
	done := func(err error) {
		emit(Event{Kind: EventDone, Campaign: c.Name, Variant: -1, Err: err})
	}
	if len(c.Variants) == 0 {
		done(fmt.Errorf("experiments: campaign %q has no variants", c.Name))
		return
	}
	run, resumed := variantFunc(inProcess), make([]*Row, len(c.Variants))
	if r.Supervisor != nil {
		sv, err := r.Supervisor.start(c, resumed, emit)
		if err != nil {
			done(err)
			return
		}
		defer sv.close()
		run = sv.variant
	}
	// Probes are stateful and must not be shared between runs: a probe
	// in the base config would receive events from every variant,
	// concurrently. Refuse rather than race; Variant.Probes is the
	// per-run factory for this.
	if len(c.Base.Probes) > 0 && len(c.Variants) > 1 {
		done(fmt.Errorf("experiments: campaign %q: Base.Probes would be shared across %d runs; use Variant.Probes factories",
			c.Name, len(c.Variants)))
		return
	}
	workers := r.Parallelism
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(c.Variants))

	// Resumed rows come first, in variant order; the other variants run.
	feed := make(chan int, len(c.Variants))
	for i, row := range resumed {
		if row == nil {
			feed <- i
			continue
		}
		emit(Event{Kind: EventProgress, Campaign: c.Name, Variant: i, Name: row.Name,
			Message: fmt.Sprintf("%s: resumed from journal", row.Name)})
		emit(Event{Kind: EventRow, Campaign: c.Name, Variant: i, Name: row.Name, Row: row})
	}
	close(feed)

	// An error that is not contained stops the campaign: cancel the rest,
	// let in-flight variants abort, and report the lowest-index error.
	// Cancellation errors are a consequence, not a cause — they never
	// displace a real failure.
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(c.Variants)) // by variant; each written by the worker that ran it
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					return
				}
				row, err := run(ctx, c, i, emit)
				var vf *variantFailure
				switch {
				case err == nil:
					emit(Event{Kind: EventRow, Campaign: c.Name, Variant: i, Name: row.Name, Row: row})
				case errors.As(err, &vf):
					errs[i] = vf
					emit(Event{Kind: EventFailed, Campaign: c.Name, Variant: i, Name: c.Variants[i].Name, Message: vf.Message, Err: vf.Err})
				case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	done(outcome(c, errs, parent.Err(), emit))
}

// outcome is a finished campaign's error: the lowest-index variant error
// that was not contained, else ctxErr, else — when every variant failed
// — one naming the first. A campaign that lost only some variants sends
// an EventProgress naming each, in variant order.
func outcome(c Campaign, errs []error, ctxErr error, emit func(Event)) error {
	var b strings.Builder
	n := 0
	for i, err := range errs {
		var vf *variantFailure
		switch {
		case err == nil:
		case !errors.As(err, &vf):
			return err
		default:
			n++
			fmt.Fprintf(&b, " [%s: %s after %d attempts]", c.Variants[i].Name, vf.Class, vf.Attempts)
		}
	}
	switch {
	case ctxErr != nil:
		return ctxErr
	case n == len(errs):
		return fmt.Errorf("experiments: campaign %q: every variant failed permanently (first: %v)", c.Name, errs[0])
	case n > 0:
		emit(Event{Kind: EventProgress, Campaign: c.Name, Variant: -1,
			Message: fmt.Sprintf("%s: %d/%d variant(s) failed permanently:%s", c.Name, n, len(errs), b.String())})
	}
	return nil
}

// materialize builds the config variant i of c runs, once per variant:
// the base, then the variant's seed and mutation. A panic in the mutation
// comes back as pe, attributing the config as far as it was built.
func materialize(c Campaign, i int) (cfg sim.Config, pe *sim.PanicError) {
	v := c.Variants[i]
	cfg = c.Base
	defer func() {
		if rec := recover(); rec != nil {
			pe = &sim.PanicError{Config: cfg, Value: rec, Stack: debug.Stack()}
		}
	}()
	cfg.Seed = cmp.Or(v.Seed, cfg.Seed)
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	return cfg, nil
}

// runConfig runs cfg in this process, in the pool or in a worker, with
// the probes the factory builds and one telling onRound every round's
// end, each when set. A panic in probe construction, engine setup or the
// run itself comes back as a *sim.PanicError.
func runConfig(ctx context.Context, cfg sim.Config, probes func() []sim.Probe, onRound func(done, rounds int64)) (res *sim.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, &sim.PanicError{Config: cfg, Value: rec, Stack: debug.Stack()}
		}
	}()
	if probes != nil {
		cfg.Probes = append(slices.Clip(cfg.Probes), probes()...)
	}
	if onRound != nil {
		rounds := cfg.Rounds
		cfg.Probes = append(slices.Clip(cfg.Probes), roundProbe{fn: func(done int64) { onRound(done, rounds) }})
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// panicFailure is a variant's panic, contained as a failure of its one
// attempt.
func panicFailure(name string, pe *sim.PanicError) *variantFailure {
	return &variantFailure{Class: failPanic, Attempts: 1, Err: pe,
		Message: fmt.Sprintf("%s: panic contained: %v", name, pe.Value)}
}

// inProcess is the pool's variantFunc without a supervisor: variant i
// materialised and run in this process, a panic contained as a failure
// of its one attempt, a config sim.New refuses an error naming it.
func inProcess(ctx context.Context, c Campaign, i int, emit func(Event)) (*Row, error) {
	v := c.Variants[i]
	cfg, pe := materialize(c, i)
	if pe != nil {
		return nil, panicFailure(v.Name, pe)
	}
	res, err := runConfig(ctx, cfg, v.Probes, roundReport(c, i, emit))
	switch {
	case err == nil:
		return &Row{Index: i, Name: v.Name, Config: cfg, Result: res}, nil
	case errors.As(err, &pe):
		return nil, panicFailure(v.Name, pe)
	case ctx.Err() == nil:
		return nil, fmt.Errorf("%s %q: %w", c.Name, v.Name, err)
	}
	return nil, err
}
