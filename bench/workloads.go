package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
)

// env is where one invocation runs: a checkout, its build directory, a
// scratch directory of its own, and the load sizing taken from nproc.
type env struct {
	ctx    context.Context
	root   string // the checkout
	binDir string // <root>/.bench_build/bin
	work   string // <root>/.bench_build/work/<unique>, removed at exit
	outDir string // <root>/bench/out
	seed   uint64
	p      int // min(nproc, 4): -parallel, Config.Shards and -procs
	// full is set for the whole benchmark in one command (-workload all).
	// Only then does the traced campaign-fig1 run once more under the
	// process supervisor and the traced sim-paper-churn re-run its
	// configuration over the engine grid: five extra simulations that the
	// per-workload runs of the contract's driver have no time for.
	full bool
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// campaignScale is the -scale the CLI workloads run at.
const campaignScale = experiments.ScaleSmoke

// opResult is one operation of a workload, measured from outside.
type opResult struct {
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	PeakRSSMiB   float64 `json:"peak_rss_mib"`
	ProtocolWork float64 `json:"protocol_work"`
	// TraceBaseS is the time of the part of the operation that the traced
	// run repeats with spans: what its wall is compared with.
	TraceBaseS float64    `json:"trace_base_s"`
	Digest     string     `json:"digest"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Errors     []string   `json:"errors,omitempty"`
	Simulated  *simulated `json:"simulated,omitempty"`
}

// fail records a failed operation or output check.
func (r *opResult) fail(n int, format string, args ...any) {
	r.Failed = min(r.Attempted, r.Failed+n)
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs. Sizes are fixed; expectS is one
// operation's time on the 2-core box the sizes were chosen on when its
// host is quiet, and an operation running ten times that long is killed
// and counted failed.
type workload struct {
	name    string
	why     string
	binary  string // what setup builds: p2psim, p2pbackup or bench
	expectS float64
	// campaign is the experiment a p2psim workload runs; sharded says
	// that an in-process workload runs with Config.Shards = P.
	campaign *campaign
	sharded  bool
	// prepare makes the inputs and faults the binary in; build came first.
	prepare func(e *env) error
	// op runs operation i untraced and checks its output outside the
	// timed section.
	op func(e *env, w *workload, i int) opResult
	// traced runs the operation once with spans around the calls into
	// each layer and fills the per-layer metrics; it returns the traced
	// operation's wall, its root span and what its probes could not do.
	traced func(e *env, w *workload, tr *tracer, layer map[string]float64) (wallS float64, root int, op opResult, layerErrs []string)
}

var workloads = []workload{
	{
		name:     "campaign-fig1",
		why:      "The paper's own figure and the unit ROADMAP aim 1 names: 13 small cache-resident fixed-n runs, so variant scheduling and CLI fixed costs matter; 80% maintenance, 20% walk.",
		binary:   "p2psim",
		expectS:  24,
		campaign: &fig1,
		prepare:  warmP2psim,
		op:       campaignUntraced,
		traced:   campaignTraced,
	},
	{
		name:    "sim-paper-churn",
		why:     "Paper-scale population (25 000 peers, ~600 MiB, far beyond cache): the walk's share is largest, memory is an end-to-end cost, and sharding and the merge barrier do work only here.",
		binary:  "bench",
		expectS: 15,
		sharded: true,
		prepare: warmChild,
		op:      simOp,
		traced:  simTraced,
	},
	{
		name:    "sim-adaptive",
		why:     "Adaptive redundancy: the evaluation phase is ~95% of the time here and about 0 elsewhere, so an evaluation fix must move this workload and no other.",
		binary:  "bench",
		expectS: 13,
		prepare: warmChild,
		op:      simOp,
		traced:  simTraced,
	},
	{
		name:     "sim-flashcrowd-bw",
		why:      "The same maintenance loop used the other way: placements are metered transfers with suspend, resume, abort and restores, so a gain on campaign-fig1 that costs the transfer path shows here.",
		binary:   "p2psim",
		expectS:  12,
		campaign: &flashcrowd,
		prepare:  warmP2psim,
		op:       campaignUntraced,
		traced:   campaignTraced,
	},
	{
		name:    "live-backup-restore",
		why:     "The live half at the paper's 128+128 code on a 48 MiB tree: backup, erasure, gf256 and storage do all the work and sim none; an engine change must not move it, an RS-kernel change only it.",
		binary:  "p2pbackup",
		expectS: 14,
		prepare: prepareLive,
		op:      liveOp,
		traced:  liveTraced,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opContext bounds one operation to ten times its expected time.
func opContext(e *env, w *workload) (context.Context, context.CancelFunc) {
	return context.WithTimeout(e.ctx, time.Duration(10*w.expectS*float64(time.Second)))
}

// ---- set-up ---------------------------------------------------------------

// buildBinary compiles what a workload runs into the bench build
// directory. The Go build cache makes every build but a checkout's
// first an up-to-date check.
func buildBinary(e *env, name string) error {
	dir, pkg := e.root, "./cmd/"+name
	if name == "bench" {
		dir, pkg = filepath.Join(e.root, "bench"), "."
	}
	r := runProc(e.ctx, dir, "go", "build", "-o", e.bin(name), pkg)
	if r.Err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, r.Err, r.Stderr)
	}
	return nil
}

// warmP2psim runs the one experiment that simulates nothing, which
// faults the binary in and is the campaign's fixed start-up cost.
func warmP2psim(e *env) error {
	r := runProc(e.ctx, e.work, e.bin("p2psim"), "-exp", "costmodel", "-out", "")
	return r.Err
}

func warmChild(e *env) error {
	r := runProc(e.ctx, e.work, e.bin("bench"), "-child", "warm")
	return r.Err
}

func liveSrc(e *env) string { return filepath.Join(e.work, "src") }

func prepareLive(e *env) error {
	if err := os.RemoveAll(liveSrc(e)); err != nil {
		return err
	}
	if err := writeTree(liveSrc(e), liveTree, e.seed); err != nil {
		return err
	}
	_ = runProc(e.ctx, e.work, e.bin("p2pbackup")) // prints usage and exits 2: only faults the binary in
	return nil
}

// setup builds, generates inputs and warms up, and returns how long
// that took.
func setup(e *env, w *workload) (float64, error) {
	start := time.Now()
	if err := buildBinary(e, w.binary); err != nil {
		return 0, err
	}
	if err := w.prepare(e); err != nil {
		return 0, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	return time.Since(start).Seconds(), nil
}

// ---- CLI simulation campaigns ---------------------------------------------

// campaign is a p2psim experiment run at smoke scale.
type campaign struct {
	exp      string
	variants int
	tsv      string // the output file with one row per variant
	// supervised says that the full run repeats the campaign under
	// -procs and compares the bytes.
	supervised bool
	// work computes protocol_work, and what else the model produced,
	// from the TSV; peerRounds is the population times the length of one
	// variant at the scale the campaign ran at.
	work func(t tsvTable, peerRounds float64) (float64, *simulated, error)
}

var fig1 = campaign{exp: "fig1", variants: 13, tsv: "fig1_repairs_by_threshold.tsv", supervised: true,
	work: func(t tsvTable, _ float64) (float64, *simulated, error) {
		// Unweighted mean of the 13 x 4 cells, each already repairs per
		// 1000 peer-rounds of its age category.
		total := 0.0
		for _, cat := range []string{"newcomer", "young", "old", "elder"} {
			col, err := t.column(cat)
			if err != nil {
				return 0, nil, err
			}
			total += sum(col)
		}
		return total / float64(4*len(t.Rows)), &simulated{}, nil
	}}

var flashcrowd = campaign{exp: "flashcrowd", variants: 3, tsv: "scenario_flashcrowd.tsv",
	work: func(t tsvTable, peerRounds float64) (float64, *simulated, error) {
		totals := map[string]int64{}
		for _, name := range []string{"repairs", "losses", "deaths", "ttb_n", "ttr_n", "restores_failed"} {
			col, err := t.column(name)
			if err != nil {
				return 0, nil, err
			}
			totals[name] = int64(sum(col))
		}
		sim := &simulated{
			Repairs: totals["repairs"], Losses: totals["losses"], Deaths: totals["deaths"],
			TTBN: totals["ttb_n"], TTRN: totals["ttr_n"], RestoresFailed: totals["restores_failed"],
		}
		return float64(sim.Repairs) * 1000 / (float64(len(t.Rows)) * peerRounds), sim, nil
	}}

func isTSV(rel string) bool { return strings.HasSuffix(rel, ".tsv") }

// campaignRun is a campaign operation plus what the traced run needs.
type campaignRun struct {
	opResult
	proc     procResult
	tsvBytes int64
}

func campaignUntraced(e *env, w *workload, i int) opResult {
	return campaignOp(e, w, fmt.Sprintf("out-%d", i)).opResult
}

// campaignOp runs the campaign once into a fresh directory and checks
// what it wrote. Extra flags come after the fixed ones.
func campaignOp(e *env, w *workload, dirName string, extra ...string) campaignRun {
	c := w.campaign
	dir := filepath.Join(e.work, dirName)
	defer os.RemoveAll(dir)
	argv := []string{e.bin("p2psim"), "-exp", c.exp, "-scale", string(campaignScale), "-seed", fmt.Sprint(e.seed),
		"-parallel", fmt.Sprint(e.p), "-quiet", "-out", dir}
	argv = append(argv, extra...)
	ctx, cancel := opContext(e, w)
	defer cancel()
	p := runProc(ctx, e.work, argv...)

	run := campaignRun{proc: p}
	run.Attempted = c.variants
	run.WallS, run.CPUS, run.PeakRSSMiB, run.TraceBaseS = p.WallS, p.CPUS, p.PeakRSSMiB, p.WallS
	if p.Err != nil {
		run.fail(c.variants, "%s: %v: %s", c.exp, p.Err, lastLine(p.Stderr))
		return run
	}
	var err error
	if run.Digest, run.tsvBytes, err = digestFiles(dir, isTSV); err != nil {
		run.fail(1, "%s: digest: %v", c.exp, err)
	}
	run.Simulated = &simulated{}
	raw, err := os.ReadFile(filepath.Join(dir, c.tsv))
	if err != nil {
		run.fail(1, "%s: output check: %v", c.exp, err)
		return run
	}
	t, err := parseTSV(string(raw))
	if err == nil && len(t.Rows) != c.variants {
		err = fmt.Errorf("%d rows, want one per variant, %d", len(t.Rows), c.variants)
	}
	if err == nil {
		// The population and length the program itself gives this scale.
		var base sim.Config
		if base, err = experiments.BaseConfig(campaignScale); err == nil {
			run.ProtocolWork, run.Simulated, err = c.work(t, float64(base.NumPeers)*float64(base.Rounds))
		}
	}
	if err != nil {
		run.fail(1, "%s: output check: %s: %v", c.exp, c.tsv, err)
		return run
	}
	run.Simulated.Digest = run.Digest
	run.Simulated.RepairsPer1000 = run.ProtocolWork
	return run
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func campaignTraced(e *env, w *workload, tr *tracer, layer map[string]float64) (float64, int, opResult, []string) {
	c := w.campaign
	var errs []string

	// Floor of wall_s: the process with nothing to simulate.
	var startup []float64
	for i := 0; i < 5; i++ {
		id := tr.begin("bench.startup-probe", 0)
		r := runProc(e.ctx, e.work, e.bin("p2psim"), "-exp", "costmodel", "-out", "")
		tr.end(id)
		if r.Err != nil {
			errs = append(errs, fmt.Sprintf("experiments.startup_s: %v", r.Err))
			break
		}
		startup = append(startup, r.WallS)
	}
	if len(startup) > 0 {
		layer["experiments.startup_s"] = median(startup)
	}

	root := tr.begin("bench.op", 0)
	run := campaignOp(e, w, "out-traced", "-phasetimes")
	tr.add("experiments.campaign", root, run.proc.Start, run.proc.End)
	tr.end(root)

	layer["experiments.tsv_bytes"] = float64(run.tsvBytes)
	layer["transfer.ttb_n"] = float64(run.Simulated.TTBN)
	layer["transfer.ttr_n"] = float64(run.Simulated.TTRN)
	layer["transfer.restores_failed"] = float64(run.Simulated.RestoresFailed)
	if ps, err := parsePhaseTimes(run.proc.Stderr); err != nil {
		errs = append(errs, fmt.Sprintf("sim.*_s, experiments.variants, experiments.phase_total_s, experiments.parallel_efficiency: %v", err))
	} else {
		layer["experiments.variants"] = float64(ps.Runs)
		layer["experiments.phase_total_s"] = ps.Total
		if run.WallS > 0 {
			layer["experiments.parallel_efficiency"] = ps.Total / (run.WallS * float64(e.p))
		}
		total := 0.0
		for cli, metric := range map[string]string{
			"walk": "sim.walk_s", "merge": "sim.merge_s", "transfer-drain": "sim.transfer_drain_s",
			"evaluation": "sim.evaluation_s", "maintenance": "sim.maintenance_s",
		} {
			s, ok := ps.Phases[cli]
			if !ok {
				errs = append(errs, fmt.Sprintf("%s: no %q line in the -phasetimes summary", metric, cli))
				continue
			}
			layer[metric] = s
			total += s
		}
		layer["sim.phase_total_s"] = total
	}

	if e.full && c.supervised {
		id := tr.begin("bench.procs-rerun", 0)
		sup := campaignOp(e, w, "out-procs", "-procs", fmt.Sprint(e.p))
		tr.end(id)
		run.Attempted += sup.Attempted
		switch {
		case sup.Failed > 0:
			run.fail(sup.Failed, "-procs re-run: %s", strings.Join(sup.Errors, "; "))
		case sup.Digest != run.Digest:
			run.fail(1, "-procs %d output differs from the in-process TSVs", e.p)
		default:
			layer["experiments.supervised_wall_ratio"] = sup.WallS / run.WallS
		}
	}
	return run.WallS, root, run.opResult, errs
}

// ---- in-process simulations -------------------------------------------------

// runChild runs one simulation in a child of the harness.
func runChild(ctx context.Context, e *env, req simRequest) (procResult, simResult, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return procResult{}, simResult{}, err
	}
	p := runProc(ctx, e.work, e.bin("bench"), "-child", string(raw))
	if p.Err != nil {
		return p, simResult{}, fmt.Errorf("%v: %s", p.Err, lastLine(p.Stderr))
	}
	var res simResult
	if err := json.Unmarshal([]byte(p.Stdout), &res); err != nil {
		return p, res, fmt.Errorf("child result: %w", err)
	}
	return p, res, nil
}

func simOpFrom(p procResult, res simResult, err error) opResult {
	op := opResult{Attempted: 1, WallS: p.WallS, CPUS: p.CPUS, PeakRSSMiB: p.PeakRSSMiB}
	if err != nil {
		op.fail(1, "%v", err)
		return op
	}
	sim := res.Simulated
	op.Simulated, op.Digest, op.ProtocolWork, op.TraceBaseS = &sim, sim.Digest, sim.RepairsPer1000, res.OpS
	return op
}

// simRequestFor is the workload's own run: its seed, and P shards if it
// is the sharded one.
func simRequestFor(e *env, w *workload) simRequest {
	req := simRequest{Workload: w.name, Seed: e.seed}
	if w.sharded {
		req.Shards = e.p
	}
	return req
}

func simOp(e *env, w *workload, _ int) opResult {
	ctx, cancel := opContext(e, w)
	defer cancel()
	return simOpFrom(runChild(ctx, e, simRequestFor(e, w)))
}

func simTraced(e *env, w *workload, tr *tracer, layer map[string]float64) (float64, int, opResult, []string) {
	ctx, cancel := opContext(e, w)
	defer cancel()
	req := simRequestFor(e, w)
	req.Traced = true
	p, res, err := runChild(ctx, e, req)
	op := simOpFrom(p, res, err)
	if err == nil && len(res.Spans) == 0 {
		op.fail(1, "traced child returned no spans")
	}
	if op.Failed > 0 {
		return p.WallS, 0, op, nil
	}
	// The child's first span is its operation root: sim.New to the digest,
	// without the primitives it timed afterwards.
	root := len(tr.spans) + 1
	tr.adopt(res.Spans, 0)
	wall := tr.get(root).seconds()
	for k, v := range res.Layer {
		layer[k] = v
	}
	errs := res.LayerErrors
	if e.full && w.sharded {
		errs = append(errs, engineGrid(e, w, &op, layer)...)
	}
	return wall, root, op, errs
}

// engineGrid re-runs the sim-paper-churn configuration per engine
// generation and shard count. Nothing gated depends on it today; it is
// the information the engine-collapse decision needs, and afterwards
// sim.shard_speedup explains wall_s on this workload.
func engineGrid(e *env, w *workload, op *opResult, layer map[string]float64) (errs []string) {
	type cell struct {
		wall   float64
		digest string
	}
	cells := map[string]cell{}
	for _, engine := range []string{"v1", "v3"} {
		for _, s := range []struct {
			tag    string
			shards int
		}{{"s1", 1}, {"sN", e.p}} {
			row := "sim." + engine + "_" + s.tag
			ctx, cancel := opContext(e, w)
			p, res, err := runChild(ctx, e, simRequest{Workload: w.name, Seed: e.seed, Shards: s.shards, Engine: engine, Phases: true})
			cancel()
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("%s.*: %v", row, err))
				continue
			case !res.EngineSet && engine == "v1":
				errs = append(errs, row+".*: absent, sim.Config has no Walk field to select v1 with")
				continue
			}
			// Without the field the v3 rows measure the only engine there is.
			layer[row+".wall_s"] = p.WallS
			layer[row+".walk_s"] = res.Layer["sim.walk_s"]
			layer[row+".merge_s"] = res.Layer["sim.merge_s"]
			layer[row+".maintenance_s"] = res.Layer["sim.maintenance_s"]
			cells[row] = cell{p.WallS, res.Simulated.Digest}
		}
		one, okOne := cells["sim."+engine+"_s1"]
		many, okMany := cells["sim."+engine+"_sN"]
		if okOne && okMany {
			op.Attempted++
			if one.digest != many.digest {
				op.fail(1, "%s: Shards=1 and Shards=%d give different digests", engine, e.p)
			}
		}
	}
	// The default engine is v1 while it can be selected, v3 after.
	for _, engine := range []string{"v1", "v3"} {
		one, okOne := cells["sim."+engine+"_s1"]
		many, okMany := cells["sim."+engine+"_sN"]
		if okOne && okMany && many.wall > 0 {
			layer["sim.shard_speedup"] = one.wall / many.wall
			break
		}
	}
	return errs
}

// ---- live backup and restore ------------------------------------------------

// liveOp runs backup, verify and restore as three commands and checks
// the result with the commands' clocks stopped.
func liveOp(e *env, w *workload, i int) opResult {
	repo := filepath.Join(e.work, fmt.Sprintf("repo-%d", i))
	dst := filepath.Join(e.work, fmt.Sprintf("dst-%d", i))
	defer os.RemoveAll(repo)
	defer os.RemoveAll(dst)

	op := opResult{Attempted: 3}
	bin := e.bin("p2pbackup")
	command := func(argv ...string) procResult {
		ctx, cancel := opContext(e, w)
		defer cancel()
		p := runProc(ctx, e.work, argv...)
		op.WallS += p.WallS
		op.CPUS += p.CPUS
		op.PeakRSSMiB = max(op.PeakRSSMiB, p.PeakRSSMiB)
		if p.Err != nil {
			op.fail(1, "p2pbackup %s: %v: %s", argv[1], p.Err, lastLine(p.Stderr))
		}
		return p
	}

	backup := command(bin, "backup", "-src", liveSrc(e), "-repo", repo,
		"-peers", fmt.Sprint(livePeers), "-k", fmt.Sprint(liveK), "-m", fmt.Sprint(liveM))
	if v := command(bin, "verify", "-repo", repo); v.Err == nil && !strings.Contains(v.Stdout, ": OK") {
		op.fail(1, "verify after backup: %s", lastLine(v.Stdout))
	}
	if stored, err := storedBytes(repo); err != nil {
		op.fail(1, "repository size: %v", err)
	} else {
		op.ProtocolWork = float64(stored) / float64(liveTree.bytes())
	}
	if err := dropPeers(repo, 0, liveK); err != nil {
		op.fail(1, "drop peers: %v", err)
	}
	restore := command(bin, "restore", "-repo", repo, "-dst", dst)
	op.TraceBaseS = backup.WallS + restore.WallS // the traced replay makes no verify call

	// Output checks, untimed.
	want, _, err := digestFiles(liveSrc(e), nil)
	if err != nil {
		op.fail(1, "source digest: %v", err)
	}
	if op.Digest, _, err = digestFiles(dst, nil); err != nil || op.Digest != want {
		op.fail(1, "restored tree differs from the source (%v)", err)
	}
	// One peer more than the code tolerates must fail loudly.
	if err := dropPeers(repo, liveK, liveK+1); err != nil {
		op.fail(1, "drop peers: %v", err)
	}
	ctx, cancel := opContext(e, w)
	defer cancel()
	if v := runProc(ctx, e.work, bin, "verify", "-repo", repo); v.Err == nil || !strings.Contains(v.Stdout, "UNRECOVERABLE") {
		op.fail(1, "verify with %d peers gone: want UNRECOVERABLE and a non-zero exit, got %q, %v", liveK+1, lastLine(v.Stdout), v.Err)
	}
	return op
}

func liveTraced(e *env, _ *workload, tr *tracer, layer map[string]float64) (float64, int, opResult, []string) {
	repo, dst := filepath.Join(e.work, "repo-traced"), filepath.Join(e.work, "dst-traced")
	defer os.RemoveAll(repo)
	defer os.RemoveAll(dst)

	op := opResult{Attempted: 1}
	root := tr.begin("bench.op", 0)
	backupS, restoreS, err := liveReplay(tr, root, liveSrc(e), repo, dst, layer)
	tr.end(root)
	// The replay's clock stops while peers are deleted, as the commands' does.
	wall := backupS + restoreS
	if err != nil {
		op.fail(1, "replay: %v", err)
		return wall, root, op, nil
	}
	mib := float64(liveTree.bytes()) / (1 << 20)
	layer["live.backup_mib_per_s"] = mib / backupS
	layer["live.restore_mib_per_s"] = mib / restoreS
	op.WallS, op.ProtocolWork = wall, layer["storage.bytes_stored_per_user_byte"]

	want, _, err := digestFiles(liveSrc(e), nil)
	if err != nil {
		op.fail(1, "source digest: %v", err)
	}
	if op.Digest, _, err = digestFiles(dst, nil); err != nil || op.Digest != want {
		op.fail(1, "replayed restore differs from the source (%v)", err)
	}

	id := tr.begin("bench.primitives", 0)
	errs := runPrimitives(livePrimitives(), layer)
	tr.end(id)
	return wall, root, op, errs
}
