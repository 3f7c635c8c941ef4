// Command p2psim runs the paper's simulation experiments and writes
// plot-ready TSV data.
//
// Usage:
//
//	p2psim -exp fig1 -scale smoke -out results/
//	p2psim -exp fig3 -scale default -seed 7 -out results/
//	p2psim -exp fig1 -strategy estimator:pareto -out results/
//	p2psim -exp fig3 -strategy monitored-availability -out results/
//	p2psim -exp ablation-estimator -scale smoke -out results/
//	p2psim -exp diurnal -scale smoke -out results/
//	p2psim -exp blackout -scale smoke -out results/
//	p2psim -exp replay -trace trace.csv -out results/
//	p2psim -exp all -scale smoke -out results/
//
// Experiments: fig1 fig2 (threshold sweep), fig3 fig4 (observers and
// cumulative losses at threshold 148), costmodel (section 2.2.4 table),
// ablation-strategy, ablation-availability, ablation-horizon,
// ablation-delay, ablation-estimator (age vs estimator-backed vs
// monitored-availability ranking under i.i.d., diurnal and replayed
// churn), and the scenario campaigns: diurnal (day/night amplitude
// sweep), blackout (correlated-failure shocks vs baseline), replay
// (every selection strategy over one recorded churn trace, -trace
// required; generate traces with cmd/tracegen), transfer-baseline
// (bandwidth presets compared on identical populations), flashcrowd
// (mid-run blackout followed by mass restore demand), uplink-sweep
// (budget-mode baseline vs DSL-class uplinks from 0.25x to 4x),
// fixed-vs-adaptive (the paper's fixed n-per-archive provisioning vs
// the adaptive redundancy policy under i.i.d., diurnal, shock and
// replayed churn, with storage-overhead and parity-cost columns), all.
//
// -strategy overrides the partner-selection strategy of the base
// configuration with a spec string from the selection registry: age,
// age:L=2160, random, availability-oracle, lifetime-oracle,
// youngest-first, estimator:age, estimator:pareto[:alpha=A,xm=X],
// estimator:empirical[:n=N], monitored-availability[:W]. Campaigns that
// sweep the strategy themselves ignore it per variant.
//
// -bandwidth attaches per-peer bandwidth classes so placements become
// in-flight transfers over metered uplinks: a preset (instant, dsl,
// mixed, skewed) or an explicit class spec
// ("[restart;]name:prop:up/down[:inflight];..." in blocks per round,
// see internal/transfer). The transfer campaigns (transfer-baseline,
// flashcrowd, uplink-sweep) sweep the mix themselves and ignore it per
// variant. When any run records backup or restore episodes, the final
// report includes time-to-backup/time-to-restore distribution lines.
//
// -redundancy sets the per-archive redundancy policy of the base
// configuration with a spec string from the redundancy registry:
// fixed (the paper's constant n), or
// adaptive:min=M,max=M2,target=P[,hysteresis=H,eval=E,sample=S] to
// retune each archive's parity count online from monitored partner
// availability. The fixed-vs-adaptive campaign sweeps the policy
// itself and uses this spec as its adaptive arm. When any run grew or
// shrank archives, the final report includes a redundancy line with
// the parity traffic and its upload cost on the paper's DSL link.
//
// -shards runs every simulation's churn walk and maintenance plan on
// that many workers (per-slot rng streams, effect-log merge at the
// round barrier). Results are bit-identical at every shard count — it
// is purely a speed knob, composing with -parallel, which runs whole
// variants concurrently; prefer -parallel while the campaign has more
// variants than cores, -shards when a few big runs dominate.
//
// -phasetimes collects per-phase wall time (walk / merge /
// maintenance / transfer-drain / evaluation) in every run and prints
// the campaign-wide breakdown at exit — the first stop when deciding
// whether -shards would pay on a given workload.
//
// Scales: smoke (600 peers, 20k rounds), default (2,500 peers, 50k
// rounds), paper (25,000 peers, 50k rounds - slow). The replay
// experiment takes its population and length from the trace instead.
//
// Campaigns run on the experiments.Runner: simulations execute over a
// bounded worker pool and stream typed events; Ctrl-C cancels the
// whole campaign cleanly, including simulations already in flight.
// Unless -quiet, the text of every progress and row event (round
// heartbeats of a one-run campaign, a line per finished variant,
// supervisor retries and resumes) goes to stderr behind an [hh:mm:ss]
// stamp.
//
// -procs N switches campaigns to the fault-tolerant process
// supervisor (experiments.Options.Supervisor): each variant runs in an
// isolated worker process (this binary re-exec'd with -worker). The
// campaign runs in the same variant pool; -procs N bounds it, so N
// variants run at a time and -parallel is not read. Attempts get
// per-variant timeouts (-variant-timeout), heartbeat stall detection
// (30 s of silence), and classified retries (panic / OOM-kill / hang /
// exit) with exponential backoff. Completed variants are checkpointed
// to an append-only journal (<out>/campaign.journal when -out is set;
// a run that fails its checks, such as an unknown -exp or a bad
// -strategy, leaves it untouched); -resume FILE reloads a journal and
// re-runs only the variants without a completed row. -resume and
// -variant-timeout need -procs. Deterministic seeding makes supervised
// results bit-identical to in-process runs, crashes and retries
// included. Variants that exhaust their retries become typed failure
// rows: the campaign completes, the failures are summarised on stderr,
// and the exit code is 3.
//
// -worker is internal: run one variant as a supervisor's child
// (request on stdin, heartbeats and result on stdout).
//
// -cpuprofile and -memprofile write pprof profiles of the campaign
// (CPU over the whole run, heap at exit), so the engine's hot paths
// can be inspected without a throwaway harness:
//
//	p2psim -exp fig1 -scale default -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
//
// Profiles are flushed on every exit path, including campaign errors
// and Ctrl-C.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/experiments"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

func main() {
	// The body lives in run so deferred profile flushes execute on
	// every exit path, including campaign errors and Ctrl-C.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "fig1", "experiment id: "+strings.Join(experiments.Names(), " "))
	scale := flag.String("scale", "smoke", "scale preset: "+strings.Join(experiments.Scales(), " "))
	seed := flag.Uint64("seed", 1, "base random seed")
	out := flag.String("out", "results", "output directory for TSV files (empty = stdout summary only)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulation runs")
	quiet := flag.Bool("quiet", false, "suppress progress messages")
	trace := flag.String("trace", "", "churn trace (CSV/JSONL) for -exp replay / ablation-estimator")
	strategy := flag.String("strategy", "", "partner-selection strategy spec, e.g. age:L=2160, estimator:pareto, monitored-availability:720 (default: the paper's age strategy)")
	bandwidth := flag.String("bandwidth", "", "bandwidth class spec: "+strings.Join(transfer.Presets(), " ")+", or name:prop:up/down[:inflight];... (default: the paper's instant placement)")
	redundancySpec := flag.String("redundancy", "", "redundancy policy spec: fixed, or adaptive:min=M,max=M2,target=P[,hysteresis=H,eval=E,sample=S] (default: the paper's fixed n per archive)")
	shards := flag.Int("shards", 0, "per-simulation shard workers for the churn walk and the maintenance plan; 0 or 1 = one goroutine, results are identical at every value")
	phasetimes := flag.Bool("phasetimes", false, "collect per-phase wall time (walk/merge/maintenance/transfer-drain/evaluation) and print the campaign-wide breakdown at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole campaign to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
	worker := flag.Bool("worker", false, "internal: run one campaign variant as a supervisor's worker (request on stdin, result on stdout)")
	procs := flag.Int("procs", 0, "run campaigns under the fault-tolerant process supervisor with this many worker processes (0 = in-process)")
	variantTimeout := flag.Duration("variant-timeout", 0, "kill a supervised variant attempt running longer than this (0 = no limit; needs -procs)")
	resume := flag.String("resume", "", "resume from this checkpoint journal, re-running only unfinished variants (needs -procs)")
	flag.Parse()

	if *worker {
		return experiments.WorkerMain(os.Stdin, os.Stdout, os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p2psim: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "p2psim: -cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p2psim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "p2psim: -memprofile:", err)
			}
		}()
	}

	opts := experiments.Options{
		Knobs: experiments.Knobs{
			Scale:        experiments.Scale(*scale),
			Seed:         *seed,
			TracePath:    *trace,
			StrategySpec: *strategy,
			Bandwidth:    *bandwidth,
			Redundancy:   *redundancySpec,
			Shards:       *shards,
			PhaseTimes:   *phasetimes,
		},
		Parallelism: *parallel,
		OutDir:      *out,
	}
	if *resume != "" && *procs <= 0 {
		fmt.Fprintln(os.Stderr, "p2psim: -resume needs -procs")
		return 1
	}
	if *variantTimeout != 0 && *procs <= 0 {
		fmt.Fprintln(os.Stderr, "p2psim: -variant-timeout needs -procs")
		return 1
	}
	if *procs > 0 {
		opts.Parallelism = *procs
		opts.Supervisor = &experiments.Supervisor{VariantTimeout: *variantTimeout}
		if *resume != "" {
			opts.Supervisor.JournalPath, opts.Supervisor.Resume = *resume, true
		} else if *out != "" {
			opts.Supervisor.JournalPath = filepath.Join(*out, "campaign.journal")
		}
	}
	// Tally simulated rounds and merge duration distributions off the
	// typed event stream so the run can close with a throughput figure
	// and, when any run recorded backup/restore episodes, campaign-wide
	// time-to-backup/time-to-restore lines. Rows are delivered from the
	// drain loop's goroutine, but campaigns can run back to back, so the
	// merge stays mutex-guarded.
	var simRounds atomic.Int64
	var (
		durMu          sync.Mutex
		ttb, ttr       metrics.Durations
		restoresFailed int64

		redunGrows, redunShrinks     int64
		parityAdded, parityReclaimed int64
		parityCostHours              float64

		phaseSum sim.PhaseTimes
		phasedN  int64
	)
	var failedVariants atomic.Int64
	opts.Events = func(ev experiments.Event) {
		if !*quiet && ev.Message != "" && (ev.Kind == experiments.EventProgress || ev.Kind == experiments.EventRow) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), ev.Message)
		}
		if ev.Kind == experiments.EventFailed {
			failedVariants.Add(1)
			fmt.Fprintln(os.Stderr, "p2psim: variant failed:", ev.Message)
			return
		}
		if ev.Kind != experiments.EventRow || ev.Row == nil {
			return
		}
		simRounds.Add(ev.Row.Config.Rounds)
		col := ev.Row.Result.Collector
		durMu.Lock()
		if p := ev.Row.Result.Phases; p != nil {
			phaseSum.Walk += p.Walk
			phaseSum.Merge += p.Merge
			phaseSum.Maintenance += p.Maintenance
			phaseSum.TransferDrain += p.TransferDrain
			phaseSum.Evaluation += p.Evaluation
			phasedN++
		}
		ttb.Merge(col.TimeToBackup())
		ttr.Merge(col.TimeToRestore())
		restoresFailed += col.RestoresFailed()
		redunGrows += col.RedundancyGrows()
		redunShrinks += col.RedundancyShrinks()
		parityReclaimed += col.ParityBlocksReclaimed()
		if added := col.ParityBlocksAdded(); added > 0 {
			parityAdded += added
			parityCostHours += costmodel.ParityCostHours(ev.Row.Config.DataBlocks, ev.Row.Config.TotalBlocks, added)
		}
		durMu.Unlock()
	}
	start := time.Now()
	sums, err := experiments.RunCtx(ctx, *exp, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "p2psim: interrupted, campaign cancelled")
		} else {
			fmt.Fprintln(os.Stderr, "p2psim:", err)
		}
		return 1
	}
	for _, s := range sums {
		fmt.Printf("== %s ==\n%s", s.Name, s.Text)
		for _, f := range s.Files {
			fmt.Printf("wrote %s\n", f)
		}
		fmt.Println()
	}
	elapsed := time.Since(start)
	if rounds := simRounds.Load(); rounds > 0 && elapsed > 0 {
		fmt.Fprintf(os.Stderr, "done in %v: %d simulated rounds, %.0f rounds/sec\n",
			elapsed.Round(time.Millisecond), rounds, float64(rounds)/elapsed.Seconds())
	} else {
		fmt.Fprintf(os.Stderr, "done in %v\n", elapsed.Round(time.Millisecond))
	}
	if ttb.N() > 0 {
		fmt.Fprintf(os.Stderr, "time-to-backup: %s\n", durationLine(&ttb))
	}
	if ttr.N() > 0 || restoresFailed > 0 {
		fmt.Fprintf(os.Stderr, "time-to-restore: %s, %d failed\n", durationLine(&ttr), restoresFailed)
	}
	if redunGrows > 0 || redunShrinks > 0 {
		fmt.Fprintf(os.Stderr, "redundancy: %d grows / %d shrinks, +%d/-%d parity blocks, grow upload ~%.0fh on the 2009 DSL uplink\n",
			redunGrows, redunShrinks, parityAdded, parityReclaimed, parityCostHours)
	}
	if phasedN > 0 {
		total := phaseSum.Walk + phaseSum.Merge + phaseSum.Maintenance +
			phaseSum.TransferDrain + phaseSum.Evaluation
		fmt.Fprintf(os.Stderr, "phase times over %d runs (total %v):\n", phasedN, total.Round(time.Millisecond))
		for _, p := range []struct {
			name string
			d    time.Duration
		}{
			{"walk", phaseSum.Walk},
			{"merge", phaseSum.Merge},
			{"maintenance", phaseSum.Maintenance},
			{"transfer-drain", phaseSum.TransferDrain},
			{"evaluation", phaseSum.Evaluation},
		} {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(p.d) / float64(total)
			}
			fmt.Fprintf(os.Stderr, "  %-14s %12v  %5.1f%%\n", p.name, p.d.Round(time.Millisecond), pct)
		}
	}
	if n := failedVariants.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "p2psim: %d variant(s) failed permanently; partial results written\n", n)
		return 3
	}
	return 0
}

// durationLine formats a merged duration distribution (rounds = hours)
// for the final report.
func durationLine(d *metrics.Durations) string {
	if d.N() == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.1fh p50=%.0fh p95=%.0fh max=%.0fh",
		d.N(), d.Mean(), d.Quantile(0.5), d.Quantile(0.95), d.Max())
}
