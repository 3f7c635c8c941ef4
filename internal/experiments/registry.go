package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
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
	// longer (0 = no limit). Supervised mode only.
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

// runner builds the execution policy an Options implies.
func (o Options) runner() Runner {
	return Runner{Parallelism: o.Parallelism}
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

// spec seeds a CampaignSpec of the given kind with the Options' shared
// knobs; callers add the kind's sweep parameters.
func (o Options) spec(kind string) CampaignSpec {
	return CampaignSpec{
		Kind:         kind,
		Scale:        o.Scale,
		Seed:         o.Seed,
		StrategySpec: o.StrategySpec,
		Bandwidth:    o.Bandwidth,
		Redundancy:   o.Redundancy,
		Shards:       o.Shards,
		PhaseTimes:   o.PhaseTimes,
		TracePath:    o.TracePath,
	}
}

// sink merges the typed event sink and the plain-text progress callback.
func (o Options) sink(rowMsg func(Row) string) func(Event) {
	text := progressSink(o.Progress, rowMsg)
	if o.Events == nil {
		return text
	}
	return func(ev Event) {
		o.Events(ev)
		if text != nil {
			text(ev)
		}
	}
}

// Summary is what an experiment reports back to the CLI.
type Summary struct {
	Name  string
	Files []string
	Text  string
}

// Names lists the runnable experiment ids.
func Names() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "costmodel", "ablation-strategy", "ablation-availability", "ablation-horizon", "ablation-delay", "ablation-estimator", "diurnal", "blackout", "replay", "transfer-baseline", "flashcrowd", "uplink-sweep", "fixed-vs-adaptive", "all"}
}

// Run executes an experiment by id and writes its data files.
//
// Deprecated: compatibility wrapper over RunCtx with a background
// context; it cannot be cancelled.
func Run(name string, opts Options) ([]Summary, error) {
	return RunCtx(context.Background(), name, opts)
}

// RunCtx executes an experiment by id over the Runner, streaming
// events to opts.Events/opts.Progress and honouring ctx cancellation,
// and writes the experiment's data files.
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
	switch name {
	case "fig1", "fig2":
		return runFigs12(ctx, opts)
	case "fig3", "fig4":
		return runFigs34(ctx, opts)
	case "costmodel":
		return runCostModel(opts)
	case "ablation-strategy":
		return runAblation(ctx, opts, "ablation_strategy.tsv", opts.spec("strategy"), StrategyCampaign)
	case "ablation-availability":
		return runAblation(ctx, opts, "ablation_availability.tsv", opts.spec("availability"), AvailabilityCampaign)
	case "ablation-delay":
		spec := opts.spec("repair-delay")
		spec.Delays = []int{0, 6, 24, 72}
		return runAblation(ctx, opts, "ablation_delay.tsv", spec, func(cfg sim.Config) Campaign {
			return RepairDelayCampaign(cfg, spec.Delays)
		})
	case "ablation-horizon":
		spec := opts.spec("horizon")
		spec.Horizons = []int64{30 * churn.Day, 90 * churn.Day, 180 * churn.Day}
		return runAblation(ctx, opts, "ablation_horizon.tsv", spec, func(cfg sim.Config) Campaign {
			return HorizonCampaign(cfg, spec.Horizons)
		})
	case "ablation-estimator":
		return runEstimator(ctx, opts)
	case "diurnal":
		spec := opts.spec("diurnal")
		spec.Amplitudes = []float64{0, 0.3, 0.6, 0.9}
		return runAblation(ctx, opts, "scenario_diurnal.tsv", spec, func(cfg sim.Config) Campaign {
			return DiurnalCampaign(cfg, spec.Amplitudes)
		})
	case "blackout":
		return runAblation(ctx, opts, "scenario_blackout.tsv", opts.spec("blackout"), BlackoutCampaign)
	case "replay":
		if opts.TracePath == "" {
			return nil, fmt.Errorf("experiments: replay needs a churn trace (-trace FILE; generate one with 'tracegen gen')")
		}
		trace, err := churn.ReadTraceFile(opts.TracePath)
		if err != nil {
			return nil, err
		}
		return runAblation(ctx, opts, "scenario_replay.tsv", opts.spec("replay"), func(cfg sim.Config) Campaign {
			return ReplayCampaign(cfg, trace)
		})
	case "transfer-baseline":
		return runTransfer(ctx, opts, "scenario_transfer_baseline.tsv", opts.spec("transfer-baseline"), TransferBaselineCampaign)
	case "flashcrowd":
		return runTransfer(ctx, opts, "scenario_flashcrowd.tsv", opts.spec("flashcrowd"), FlashCrowdCampaign)
	case "uplink-sweep":
		return runTransfer(ctx, opts, "scenario_uplink_sweep.tsv", opts.spec("uplink-sweep"), UplinkSweepCampaign)
	case "fixed-vs-adaptive":
		return runRedundancy(ctx, opts)
	case "all":
		var all []Summary
		for _, n := range []string{"costmodel", "fig1", "fig3", "ablation-strategy", "ablation-availability", "ablation-horizon", "ablation-delay", "ablation-estimator", "diurnal", "blackout", "transfer-baseline", "flashcrowd", "uplink-sweep", "fixed-vs-adaptive"} {
			s, err := RunCtx(ctx, n, opts)
			if err != nil {
				return all, err
			}
			all = append(all, s...)
		}
		return all, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
	}
}

func baseFor(opts Options) (sim.Config, error) {
	cfg, err := BaseConfig(opts.Scale)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = opts.Seed
	cfg.Shards = opts.Shards
	cfg.PhaseTimes = opts.PhaseTimes
	if opts.StrategySpec != "" {
		// Parse eagerly so a typo fails before any simulation runs.
		if _, err := selection.ParseWith(opts.StrategySpec, selection.Defaults{Horizon: cfg.AcceptHorizon}); err != nil {
			return cfg, err
		}
		cfg.StrategySpec = opts.StrategySpec
	}
	if opts.Bandwidth != "" {
		bw, err := transfer.Parse(opts.Bandwidth)
		if err != nil {
			return cfg, err
		}
		cfg.Bandwidth = bw
	}
	if opts.Redundancy != "" {
		// Parse eagerly so a typo fails before any simulation runs.
		if _, err := redundancy.Parse(opts.Redundancy); err != nil {
			return cfg, err
		}
		cfg.RedundancySpec = opts.Redundancy
	}
	return cfg, nil
}

// estimatorTraceRounds caps the internally recorded trace behind the
// ablation-estimator replay block: long enough for elders to exist,
// short enough that recording stays cheap at every scale.
const estimatorTraceRounds = 10000

// runEstimator executes the ablation-estimator experiment. Its replay
// block replays opts.TracePath when given; otherwise it records a trace
// internally from a strategy-neutral run (churn does not depend on the
// strategy) with a seed derived from the base seed, so the whole
// experiment stays a deterministic function of (scale, seed).
func runEstimator(ctx context.Context, opts Options) ([]Summary, error) {
	spec := opts.spec("estimator")
	var trace *churn.Trace
	if opts.TracePath != "" {
		t, err := churn.ReadTraceFile(opts.TracePath)
		if err != nil {
			return nil, err
		}
		trace = t
	} else {
		cfg, err := baseFor(opts)
		if err != nil {
			return nil, err
		}
		cfg.Seed = cfg.Seed*7349981 + 17
		if cfg.Rounds > estimatorTraceRounds {
			cfg.Rounds = estimatorTraceRounds
		}
		cfg.RecordTrace = true
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("recording %d-round churn trace for the replay block", cfg.Rounds))
		}
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := s.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		trace = res.Trace
		if opts.supervised() {
			path, cleanup, err := materializeTraceFile(trace, "p2psim-estimator")
			if err != nil {
				return nil, err
			}
			defer cleanup()
			spec.TracePath = path
		}
	}
	return runAblation(ctx, opts, "ablation_estimator.tsv", spec, func(cfg sim.Config) Campaign {
		return EstimatorCampaign(cfg, trace)
	})
}

// materializeTraceFile writes an internally recorded churn trace to a
// temp JSONL file so worker processes replay exactly the same churn
// the parent recorded (the JSONL round trip is lossless — see
// internal/churn's fuzz tests). The final name is derived from the
// trace content, not a random suffix: the path lands in the campaign
// spec, and the spec's fingerprint keys the checkpoint journal — a
// re-recorded (deterministic) trace must map to the same fingerprint
// or -resume would re-run every variant of trace-backed campaigns.
// The caller removes it after the campaign.
func materializeTraceFile(trace *churn.Trace, prefix string) (string, func(), error) {
	f, err := os.CreateTemp("", prefix+"-*.jsonl")
	if err != nil {
		return "", nil, err
	}
	tmp := f.Name()
	f.Close()
	if err := churn.WriteTraceFile(tmp, trace); err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	raw, err := os.ReadFile(tmp)
	if err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	sum := sha256.Sum256(raw)
	path := filepath.Join(os.TempDir(), fmt.Sprintf("%s-%s.jsonl", prefix, hex.EncodeToString(sum[:8])))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	return path, func() { os.Remove(path) }, nil
}

func writeFile(opts Options, name string, emit func(io.Writer) error) (string, error) {
	if opts.OutDir == "" {
		return "", nil
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(opts.OutDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := emit(f); err != nil {
		return "", err
	}
	return path, f.Close()
}

func runFigs12(ctx context.Context, opts Options) ([]Summary, error) {
	cfg, err := baseFor(opts)
	if err != nil {
		return nil, err
	}
	camp, err := ThresholdCampaign(cfg, PaperThresholds())
	if err != nil {
		return nil, err
	}
	rows, err := opts.collect(ctx, opts.runner(), camp, opts.spec("threshold"), opts.sink(thresholdDoneMessage))
	if err != nil {
		return nil, err
	}
	sweep := ThresholdSweepFromRows(rows)
	sweep.Scale = opts.Scale
	var files []string
	if p, err := writeFile(opts, "fig1_repairs_by_threshold.tsv", sweep.WriteRepairTSV); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	if p, err := writeFile(opts, "fig2_losses_by_threshold.tsv", sweep.WriteLossTSV); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	text := "threshold\trepairs/1k(newcomer,young,old,elder)\tlosses/1k(newcomer,young,old,elder)\n"
	for _, p := range sweep.Points {
		text += fmt.Sprintf("%d\t%.3g %.3g %.3g %.3g\t%.3g %.3g %.3g %.3g\n",
			p.Threshold,
			p.RepairRate[0], p.RepairRate[1], p.RepairRate[2], p.RepairRate[3],
			p.LossRate[0], p.LossRate[1], p.LossRate[2], p.LossRate[3])
	}
	return []Summary{{Name: "fig1+fig2", Files: files, Text: text}}, nil
}

func runFigs34(ctx context.Context, opts Options) ([]Summary, error) {
	cfg, err := baseFor(opts)
	if err != nil {
		return nil, err
	}
	r := opts.runner()
	r.Parallelism = 1
	r.RoundEvents = opts.Progress != nil || opts.Events != nil
	rows, err := opts.collect(ctx, r, FocalCampaign(cfg), opts.spec("focal"), opts.sink(nil))
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: focal run failed; no rows to report")
	}
	focal := FocalFromRow(rows[0])
	focal.Scale = opts.Scale
	var files []string
	if p, err := writeFile(opts, "fig3_observer_repairs.tsv", focal.WriteObserverTSV); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	if p, err := writeFile(opts, "fig4_cumulative_losses.tsv", focal.WriteLossSeriesTSV); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	text := "observer\tcumulative repairs\n"
	for i, n := range focal.ObserverNames {
		text += fmt.Sprintf("%s\t%d\n", n, focal.ObserverCounts[i])
	}
	for c := 0; c < len(focal.LossSeries); c++ {
		_, last := focal.LossSeries[c].Last()
		text += fmt.Sprintf("losses/peer[%s]\t%.3f\n", focal.LossSeries[c].Name(), last)
	}
	return []Summary{{Name: "fig3+fig4", Files: files, Text: text}}, nil
}

func runCostModel(opts Options) ([]Summary, error) {
	rows, err := costmodel.PaperTable()
	if err != nil {
		return nil, err
	}
	emit := func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "#case\tdownload_s\tupload_s\ttotal_min\trepairs_per_day"); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.1f\t%.1f\n",
				r.Label, r.Cost.Download.Seconds(), r.Cost.Upload.Seconds(),
				r.Cost.Total().Minutes(), r.RepairsPerDay); err != nil {
				return err
			}
		}
		return nil
	}
	var files []string
	if p, err := writeFile(opts, "table_repair_cost.tsv", emit); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	text := ""
	for _, r := range rows {
		text += fmt.Sprintf("%-26s total %.1f min (%.0fs down + %.0fs up), max %.1f repairs/day\n",
			r.Label, r.Cost.Total().Minutes(), r.Cost.Download.Seconds(), r.Cost.Upload.Seconds(), r.RepairsPerDay)
	}
	return []Summary{{Name: "costmodel", Files: files, Text: text}}, nil
}

func runAblation(ctx context.Context, opts Options, filename string, spec CampaignSpec, build func(sim.Config) Campaign) ([]Summary, error) {
	cfg, err := baseFor(opts)
	if err != nil {
		return nil, err
	}
	camp := build(cfg)
	rows, err := opts.collect(ctx, opts.runner(), camp, spec, opts.sink(doneMessage(camp.Name)))
	if err != nil {
		return nil, err
	}
	res := AblationFromRows(camp.Name, rows)
	var files []string
	if p, err := writeFile(opts, filename, res.WriteTSV); err != nil {
		return nil, err
	} else if p != "" {
		files = append(files, p)
	}
	text := fmt.Sprintf("%-24s %10s %8s %8s\n", "variant", "repairs", "losses", "deaths")
	for _, p := range res.Points {
		text += fmt.Sprintf("%-24s %10d %8d %8d\n", p.Label, p.Repairs, p.Losses, p.Deaths)
	}
	return []Summary{{Name: res.Name, Files: files, Text: text}}, nil
}
