package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
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
// Runner supplies the execution policy (parallelism, cancellation,
// event delivery).
type Campaign struct {
	Name     string
	Base     sim.Config
	Variants []Variant
}

// EventKind tags a Runner event.
type EventKind int

const (
	// EventProgress is a textual progress report from a running variant
	// (per-round heartbeats when Runner.RoundEvents is set).
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

// Runner executes campaigns over a bounded worker pool. The zero value
// is ready to use: NumCPU workers, no per-round events.
type Runner struct {
	// Parallelism bounds concurrent simulations; values below 1 mean
	// runtime.NumCPU().
	Parallelism int
	// RoundEvents emits an EventProgress heartbeat each time a variant
	// completes another tenth of its rounds.
	RoundEvents bool
}

// reportsRounds reports whether a campaign tells its progress in round
// heartbeats (Runner.RoundEvents in-process; the supervisor forwards its
// workers' rounds the same way): a one-run campaign has no rows to tell
// it by.
func reportsRounds(c Campaign) bool { return len(c.Variants) == 1 }

// roundStep is how many rounds a round heartbeat reports at a time: a
// tenth of the run.
func roundStep(rounds int64) int64 { return max(rounds/10, 1) }

// roundMessage is a round heartbeat's text.
func roundMessage(variant string, round, rounds int64) string {
	return fmt.Sprintf("%s: round %d/%d", variant, round, rounds)
}

// roundProbe calls fn with the number of rounds completed at the end of
// every round that makes it a multiple of every.
type roundProbe struct {
	sim.BaseProbe
	every int64
	fn    func(rounds int64)
}

// ProbeEvents implements sim.EventDeclarer: round ends only.
func (roundProbe) ProbeEvents() sim.EventSet { return sim.EventRoundEnd }

// OnRoundEnd implements sim.Probe.
func (p roundProbe) OnRoundEnd(e sim.RoundEndEvent) {
	if done := e.Round + 1; done%p.every == 0 {
		p.fn(done)
	}
}

// Run executes the campaign and returns its rows ordered by variant
// index. It blocks until every variant finished or ctx is cancelled;
// on error or cancellation the partial rows are discarded and the
// first error (lowest variant index, or ctx.Err()) is returned. A
// variant that panics is contained, not fatal: its EventFailed is
// visible on Stream, and Run returns the surviving variants' rows —
// callers that need the failure detail should consume Stream.
func (r Runner) Run(ctx context.Context, c Campaign) ([]Row, error) {
	return collectRows(ctx, r, c, nil)
}

// Stream executes the campaign in the background and returns its typed
// event stream: zero or more EventProgress/EventRow events (rows arrive
// in completion order, not index order) terminated by exactly one
// EventDone, after which the channel closes. The caller must drain the
// channel; cancel ctx to stop early — in-flight simulations abort
// within a few rounds and EventDone reports ctx.Err().
func (r Runner) Stream(ctx context.Context, c Campaign) <-chan Event {
	events := make(chan Event)
	go r.execute(ctx, c, events)
	return events
}

func (r Runner) execute(ctx context.Context, c Campaign, events chan<- Event) {
	defer close(events)
	if ctx == nil {
		ctx = context.Background()
	}
	done := func(err error) {
		events <- Event{Kind: EventDone, Campaign: c.Name, Variant: -1, Err: err}
	}
	if len(c.Variants) == 0 {
		done(fmt.Errorf("experiments: campaign %q has no variants", c.Name))
		return
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
	if workers > len(c.Variants) {
		workers = len(c.Variants)
	}

	// A variant failure stops the campaign: cancel the feed, let
	// in-flight runs abort, and report the lowest-index error.
	// Cancellation errors are a consequence, not a cause — they never
	// displace a real failure.
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		errIndex int
	)
	fail := func(i int, err error) {
		defer cancel()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return
		}
		mu.Lock()
		if firstErr == nil || i < errIndex {
			firstErr, errIndex = err, i
		}
		mu.Unlock()
	}

	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range c.Variants {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				row, err := r.runVariant(ctx, c, i, events)
				var pe *sim.PanicError
				switch {
				case err == nil:
					events <- Event{Kind: EventRow, Campaign: c.Name, Variant: i, Name: row.Name, Row: row}
				case errors.As(err, &pe):
					// A panicking variant is contained: siblings keep
					// running and the campaign completes with the rows
					// that survived. Configuration errors still abort —
					// they mean the whole sweep is built wrong.
					events <- Event{
						Kind:     EventFailed,
						Campaign: c.Name,
						Variant:  i,
						Name:     c.Variants[i].Name,
						Message:  fmt.Sprintf("%s: panic contained: %v", c.Variants[i].Name, pe.Value),
						Err:      err,
					}
				default:
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = parent.Err()
	}
	done(err)
}

// materializeVariant builds the exact config variant i of c runs: the
// base copied, the variant seed applied, then the variant's mutation.
// Probes are not attached — the in-process path adds them from the
// Variant.Probes factory, and the supervised path rejects campaigns
// with probes (they cannot cross a process boundary). Both execution
// paths derive a variant's config through this one function, which is
// what makes supervised output bit-identical to in-process output. A
// Mutate that panics re-panics as a *sim.PanicError carrying the config
// as far as it was built.
func materializeVariant(c Campaign, i int) (cfg sim.Config) {
	v := c.Variants[i]
	cfg = c.Base
	if v.Seed != 0 {
		cfg.Seed = v.Seed
	}
	if v.Mutate != nil {
		defer func() {
			if rec := recover(); rec != nil {
				panic(&sim.PanicError{Config: cfg, Value: rec, Stack: debug.Stack()})
			}
		}()
		v.Mutate(&cfg)
	}
	return cfg
}

// runVariant materialises variant i's config, attaches the variant's
// probes and the round-event probe, and executes it. Panics anywhere in
// the variant's lifecycle — config mutation, probe construction, engine
// setup, the run itself — surface as *sim.PanicError attributing
// whatever portion of the config had been materialised.
func (r Runner) runVariant(ctx context.Context, c Campaign, i int, events chan<- Event) (row *Row, err error) {
	v := c.Variants[i]
	cfg := c.Base
	defer func() {
		if rec := recover(); rec != nil {
			var pe *sim.PanicError
			if e, ok := rec.(error); ok && errors.As(e, &pe) {
				row, err = nil, pe // attributed by materializeVariant
				return
			}
			row, err = nil, &sim.PanicError{Config: cfg, Value: rec, Stack: debug.Stack()}
		}
	}()
	cfg = materializeVariant(c, i)
	if v.Probes != nil {
		cfg.Probes = append(append([]sim.Probe(nil), cfg.Probes...), v.Probes()...)
	}
	if r.RoundEvents {
		rounds := cfg.Rounds
		cfg.Probes = append(slices.Clip(cfg.Probes), roundProbe{every: roundStep(rounds), fn: func(round int64) {
			events <- Event{
				Kind:     EventProgress,
				Campaign: c.Name,
				Variant:  i,
				Name:     v.Name,
				Message:  roundMessage(v.Name, round, rounds),
			}
		}})
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s %q: %w", c.Name, v.Name, err)
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Row{Index: i, Name: v.Name, Config: cfg, Result: res}, nil
}
