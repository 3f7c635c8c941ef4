package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Options configures a registry run.
type Options struct {
	Scale       Scale
	Seed        uint64
	Parallelism int
	OutDir      string // "" = don't write files
	// TracePath names a churn trace (CSV or JSONL, e.g. from
	// cmd/tracegen) for the "replay" experiment; the trace defines the
	// population size. The "ablation-estimator" experiment also uses it
	// for its replay block when given (recording one internally
	// otherwise).
	TracePath string
	// StrategySpec, when non-empty, overrides the base config's
	// partner-selection strategy ("age:L=2160", "estimator:pareto",
	// "monitored-availability:720"; see selection.Parse). Campaigns that
	// sweep the strategy themselves (ablation-strategy, replay,
	// ablation-estimator) override it per variant.
	StrategySpec string
	// Bandwidth, when non-empty, attaches bandwidth classes to the base
	// config ("instant", "dsl", "mixed", "skewed", or an explicit class
	// spec; see transfer.Parse), so any experiment can run over metered
	// links. Campaigns that sweep the bandwidth mix themselves
	// (transfer-baseline, flashcrowd, uplink-sweep) override it per
	// variant.
	Bandwidth string
	// Redundancy, when non-empty, sets the base config's per-archive
	// redundancy policy ("fixed", "adaptive:min=M,target=P"; see
	// redundancy.Parse), so any experiment can run under adaptive
	// provisioning. The fixed-vs-adaptive campaign sweeps the policy
	// itself, using this spec as its adaptive arm when it names one.
	Redundancy string
	// Shards sets sim.Config.Shards on every variant: 0 or 1 runs each
	// simulation on one goroutine, >= 2 runs its churn walk and
	// maintenance plan on that many workers. Results are bit-identical
	// at every value (the engine's determinism invariant), so this is
	// purely a speed/parallelism knob, composing with Parallelism, which
	// runs whole variants concurrently.
	Shards int
	// PhaseTimes turns on per-phase wall-time accounting in every
	// variant's sim.Result (walk / merge / maintenance / transfer-drain
	// / evaluation), for the CLI's -phasetimes report.
	PhaseTimes bool
	// Procs, when > 0, runs every campaign under the fault-tolerant
	// process supervisor instead of the in-process Runner: each variant
	// executes in an isolated worker process (the `p2psim -worker`
	// protocol) with per-variant timeouts, heartbeat stall detection,
	// classified retries with exponential backoff, and optional
	// checkpoint journaling. Results are bit-identical to the
	// in-process run (see Supervisor).
	Procs int
	// VariantTimeout kills a supervised variant attempt that runs
	// longer (0 = no limit; negative is an error). Supervised mode only.
	VariantTimeout time.Duration
	// HeartbeatGrace kills a supervised attempt whose worker goes
	// silent for this long; 0 picks a 30s default. Supervised mode only.
	HeartbeatGrace time.Duration
	// Retry bounds supervised retries (zero fields mean 3 attempts,
	// 500ms base backoff, 10s cap). Supervised mode only.
	Retry RetryPolicy
	// JournalPath, when non-empty in supervised mode, checkpoints every
	// finished variant to this append-only fsynced JSONL journal. Unless
	// Resume is set the file is truncated once per RunCtx call.
	JournalPath string
	// Resume keeps JournalPath's existing entries and re-runs only
	// variants without a completed row for the same campaign spec.
	Resume bool
	// WorkerCmd overrides the worker argv (default: this executable
	// with -worker appended). WorkerEnv entries are appended to each
	// worker's environment. Supervised mode only; tests use these.
	WorkerCmd []string
	WorkerEnv []string
	// Progress receives plain-text progress messages (heartbeats and
	// per-variant completions).
	Progress func(string)
	// Events, when non-nil, additionally receives the Runner's typed
	// event stream for every campaign the experiment runs.
	Events func(Event)
}

// supervised reports whether campaigns run under the process
// supervisor rather than the in-process Runner.
func (o Options) supervised() bool { return o.Procs > 0 }

// collect executes a campaign with the execution layer the Options
// select: the in-process Runner, or — when Procs is set — the process
// supervisor, rebuilding the campaign in each worker from spec.
func (o Options) collect(ctx context.Context, r Runner, camp Campaign, spec CampaignSpec, sink func(Event)) ([]Row, error) {
	if !o.supervised() {
		return collectRows(ctx, r, camp, sink)
	}
	grace := o.HeartbeatGrace
	if grace <= 0 {
		grace = 30 * time.Second
	}
	sup := &Supervisor{
		Procs:          o.Procs,
		VariantTimeout: o.VariantTimeout,
		HeartbeatGrace: grace,
		Retry:          o.Retry,
		WorkerCmd:      o.WorkerCmd,
		WorkerEnv:      o.WorkerEnv,
		JournalPath:    o.JournalPath,
		Resume:         o.Resume,
	}
	return sup.Run(ctx, spec, camp, sink)
}

// sink merges the typed event sink and the plain-text progress callback:
// heartbeats pass through as text, completed rows are formatted by
// rowMsg. It is nil when neither is set.
func (o Options) sink(rowMsg func(Row) string) func(Event) {
	if o.Events == nil && o.Progress == nil {
		return nil
	}
	return func(ev Event) {
		if o.Events != nil {
			o.Events(ev)
		}
		if o.Progress == nil {
			return
		}
		switch {
		case ev.Kind == EventProgress:
			o.Progress(ev.Message)
		case ev.Kind == EventRow && rowMsg != nil:
			o.Progress(rowMsg(*ev.Row))
		}
	}
}

// Summary is what an experiment reports back to the CLI.
type Summary struct {
	Name  string
	Files []string
	Text  string
}

// Names lists the runnable experiment ids: the campaign table's, then "all".
func Names() []string {
	var names []string
	for _, c := range campaigns {
		names = append(names, c.ids...)
	}
	return append(names, "all")
}

// allIDs lists what "all" runs: every entry that needs no external trace.
func allIDs() []string {
	var ids []string
	for _, c := range campaigns {
		if !c.trace || c.record != nil {
			ids = append(ids, c.ids[0])
		}
	}
	return ids
}

// RunCtx executes an experiment by id — a campaign table entry, or
// "all" — over the Runner or, with opts.Procs, the process supervisor,
// streaming events to opts.Events/opts.Progress, honouring ctx
// cancellation, and writes the experiment's data files.
func RunCtx(ctx context.Context, name string, opts Options) ([]Summary, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	// A fresh supervised run truncates the journal exactly once, then
	// flips to resume semantics: every campaign of this call (several
	// for "all") appends to the same journal, disambiguated by spec
	// fingerprints.
	if opts.supervised() && opts.JournalPath != "" && !opts.Resume {
		if dir := filepath.Dir(opts.JournalPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("experiments: creating journal directory: %w", err)
			}
		}
		if err := os.WriteFile(opts.JournalPath, nil, 0o644); err != nil {
			return nil, fmt.Errorf("experiments: truncating journal: %w", err)
		}
		opts.Resume = true
	}
	ids := []string{name}
	if name == "all" {
		ids = allIDs()
	}
	var all []Summary
	for _, id := range ids {
		c := campaignByID(id)
		if c == nil {
			return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
		}
		s, err := c.run(ctx, opts, c.spec(opts))
		if err != nil {
			return all, err
		}
		all = append(all, s...)
	}
	return all, nil
}
