// Command bench is the repository's benchmark: five workloads that cover
// the simulator and the live backup path, measured end to end from
// outside and, on a separate traced run, layer by layer. See README.md.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh                      # every workload, untraced and traced
//	bash bench/run.sh -agree               # two sets of runs, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how often a run sets up; setup_s is the median, which
// leaves out a checkout's first, cold build. A set-up is a few tenths of
// a second, so seven of them cost less than the noise they remove.
const setupReps = 7

// fullReps is how many untraced operations per workload the full run
// (-workload all) makes; a per-workload run fills -seconds instead.
const fullReps = 3

// runLimit bounds one per-workload invocation, which has to exit within
// 180 seconds whatever the program under test does.
const runLimit = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long to measure: whole operations are run while the next one still fits, at least one")
	trace := flag.Int("trace", 0, "1 runs the traced operation and reports the per-layer metrics, 0 the end-to-end metrics")
	agree := flag.Bool("agree", false, "run the untraced runs of -workload (default: of every workload) in two sets and compare them metric by metric")
	child := flag.String("child", "", "internal: serve one in-process simulation request")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as this package defines it and exit")
	flag.Parse()

	if *printManifest {
		raw, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(raw)
		return
	}

	if *child != "" {
		if *child != "warm" {
			if err := runSimChild(*child, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "bench child:", err)
				os.Exit(1)
			}
		}
		return
	}

	root, err := findRoot()
	if err == nil {
		err = checkManifest(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	switch {
	case *agree:
		os.Exit(runAgree(root, *workloadName, *seconds))
	case *workloadName == "all":
		os.Exit(runAll(root, *seed))
	}

	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workloadName)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	e, err := newEnv(ctx, root, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var rep *report
	if *trace != 0 {
		rep, err = runTraced(e, w)
	} else {
		rep, err = runUntraced(e, w, *seconds)
	}
	e.close()
	if err != nil {
		// Not a result: the benchmark itself could not be set up.
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// findRoot returns the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func newEnv(ctx context.Context, root string, seed uint64) (*env, error) {
	e := &env{
		ctx:    ctx,
		root:   root,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		outDir: filepath.Join(root, "bench", "out"),
		seed:   seed,
		p:      min(runtime.NumCPU(), 4),
	}
	for _, d := range []string{e.binDir, e.outDir, filepath.Join(root, ".bench_build", "work")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build", "work"), "run-")
	return e, err
}

func (e *env) close() { os.RemoveAll(e.work) }

// report is one workload's run: what is printed, and what is written
// under bench/out for the next run and for the reader.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]summary `json:"detail,omitempty"` // untraced: median, min, max and n per metric
	// TraceBaseS is, for an untraced run, the median time of the part of
	// the operation that the traced run times as its wall.
	TraceBaseS  float64    `json:"trace_base_s,omitempty"`
	Digest      string     `json:"digest"`
	Simulated   *simulated `json:"simulated,omitempty"`
	LayerErrors []string   `json:"layer_errors,omitempty"`
}

func (r *report) absorb(op opResult) {
	r.Attempted += op.Attempted
	r.Failed += op.Failed
	r.Errors = append(r.Errors, op.Errors...)
}

// lastUntraced is where a workload's latest untraced report is kept, so
// that the traced run can state its overhead against it.
func lastUntraced(e *env, w *workload) string {
	return filepath.Join(e.outDir, "untraced-"+w.name+".json")
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runUntraced sets up, then runs whole operations for about the given
// number of seconds (in the full run: fullReps of them) and reports the
// median of every end-to-end metric.
func runUntraced(e *env, w *workload, seconds float64) (*report, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		s, err := setup(e, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	rep := &report{Workload: w.name, Seed: e.seed}
	samples := map[string][]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		opStart := time.Now()
		op := w.op(e, w, i)
		rep.absorb(op)
		samples["wall_s"] = append(samples["wall_s"], op.WallS)
		samples["cpu_s"] = append(samples["cpu_s"], op.CPUS)
		samples["peak_rss_mib"] = append(samples["peak_rss_mib"], op.PeakRSSMiB)
		samples["protocol_work"] = append(samples["protocol_work"], op.ProtocolWork)
		samples["trace_base_s"] = append(samples["trace_base_s"], op.TraceBaseS)
		if i == 0 {
			rep.Digest, rep.Simulated = op.Digest, op.Simulated
		} else if op.Digest != rep.Digest {
			// Same seed, same inputs: every repetition must produce the same bytes.
			rep.Failed = min(rep.Attempted, rep.Failed+1)
			rep.Errors = append(rep.Errors, fmt.Sprintf("operation %d: digest %.12s differs from the first operation's %.12s", i, op.Digest, rep.Digest))
		}
		if e.full {
			if i+1 >= fullReps {
				break
			}
		} else if time.Since(start).Seconds()+time.Since(opStart).Seconds() > seconds {
			break
		}
		if e.ctx.Err() != nil {
			break
		}
	}
	samples["setup_s"] = setups

	rep.Metrics, rep.Detail = map[string]float64{}, map[string]summary{}
	for _, d := range endToEnd {
		rep.Detail[d.Name] = summarize(samples[d.Name])
		rep.Metrics[d.Name] = rep.Detail[d.Name].Median
	}
	rep.TraceBaseS = median(samples["trace_base_s"])
	if err := writeJSON(lastUntraced(e, w), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTraced sets up once and runs the traced operation. Its wall is
// compared with the same part of the untraced operations of the
// checkout's latest untraced run of the same workload and seed; without
// one, the overhead is not reported.
func runTraced(e *env, w *workload) (*report, error) {
	if _, err := setup(e, w); err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Seed: e.seed, Traced: true}

	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, e.seed))
	layer := map[string]float64{}
	wall, root, op, layerErrs := w.traced(e, w, tr, layer)
	rep.absorb(op)
	rep.Digest, rep.Simulated, rep.LayerErrors = op.Digest, op.Simulated, layerErrs
	if root > 0 {
		layer["trace_coverage"] = coverage(tr.spans, root)
		var base report
		raw, err := os.ReadFile(lastUntraced(e, w))
		if err == nil {
			err = json.Unmarshal(raw, &base)
		}
		if err == nil && base.Seed == e.seed && base.TraceBaseS > 0 {
			layer["trace_overhead_share"] = (wall - base.TraceBaseS) / base.TraceBaseS
		} else {
			rep.LayerErrors = append(rep.LayerErrors, fmt.Sprintf("trace_overhead_share: absent, no untraced run of this workload with seed %d in this checkout to compare with", e.seed))
		}
	}

	rep.Metrics = map[string]float64{}
	for _, d := range perLayer {
		rep.Metrics[d.Name] = layer[d.Name] // 0 where the layer does not run on this workload
	}
	if err := writeJSON(filepath.Join(e.outDir, "trace-"+w.name+".json"), tr.spans); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(e.outDir, "traced-"+w.name+".json"), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, what failed, and
// last the machine-readable result line.
func (r *report) print(out *os.File) {
	mode, defs := "end-to-end (untraced)", endToEnd
	if r.Traced {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	line := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		if s, ok := r.Detail[d.Name]; ok {
			fmt.Fprintf(out, "  %-38s %14.6g %-6s (min %.6g, max %.6g, n %d)\n", d.Name, v, d.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(out, "  %-38s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "  %-38s %14.6g (%d failed of %d attempted)\n", "op_fail_share", share, r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(out, "  output digest %s\n", r.Digest)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  FAILED: %s\n", e)
	}
	for _, e := range r.LayerErrors {
		fmt.Fprintf(out, "  layer_errors: %s\n", e)
	}
	raw, _ := json.Marshal(line) // a map of numbers and strings cannot fail to marshal
	fmt.Fprintf(out, "%s\n", raw)
}

// machine describes where the numbers were taken; numbers from boxes
// with a different P are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	P          int    `json:"p"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func describeMachine(root string, p int) machine {
	m := machine{NProc: runtime.NumCPU(), P: p, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Revision: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Revision = strings.TrimSpace(string(out))
	}
	return m
}

// runAll is the whole benchmark in one command: every workload untraced
// (fullReps operations each) and traced, every metric printed by name, and
// the lot written to bench/out/results.json.
func runAll(root string, seed uint64) int {
	e, err := newEnv(context.Background(), root, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()
	e.full = true

	type both struct {
		EndToEnd *report `json:"end_to_end"`
		PerLayer *report `json:"per_layer"`
	}
	results := struct {
		Claim     *string         `json:"claim"` // this benchmark claims no gain
		Model     string          `json:"model"`
		Machine   machine         `json:"machine"`
		EndToEnd  []metricDef     `json:"end_to_end_metrics"`
		PerLayer  []metricDef     `json:"per_layer_metrics"`
		Workloads map[string]both `json:"workloads"`
	}{
		Model:     "unvalidated: the repository holds no reference results from the paper, so no error figure is given",
		Machine:   describeMachine(root, e.p),
		EndToEnd:  endToEnd,
		PerLayer:  perLayer,
		Workloads: map[string]both{},
	}
	failed := 0
	recorded := recordedWork(root, seed)
	var moved []string
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		untraced, err := runUntraced(e, w, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		untraced.print(os.Stdout)
		if was, ok := recorded[w.name]; ok {
			now := untraced.Metrics["protocol_work"]
			differ := max(worse(was, now, "lower"), worse(now, was, "lower"))
			fmt.Printf("  protocol_work was %.6g for this seed when bench/baseline.json was recorded: differs by %.2f%%\n", was, 100*differ)
			if differ > protocolBound {
				moved = append(moved, w.name)
			}
		}
		traced, err := runTraced(e, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		traced.print(os.Stdout)
		fmt.Println()
		results.Workloads[w.name] = both{untraced, traced}
		failed += untraced.Failed + traced.Failed
	}
	path := filepath.Join(e.outDir, "results.json")
	if err := writeJSON(path, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%d workloads in %s on %d of %d cores; %d operations failed; wrote %s\n",
		len(workloads), time.Since(start).Round(time.Second), e.p, runtime.NumCPU(), failed, path)
	if len(moved) > 0 {
		fmt.Printf("protocol_work moved by more than %.0f%% from bench/baseline.json on %s: the protocol does other work than when the baseline was recorded\n",
			100*protocolBound, strings.Join(moved, ", "))
	}
	if failed > 0 || len(moved) > 0 {
		return 1
	}
	return 0
}

// recordedWork returns, per workload, the protocol_work that
// bench/baseline.json records for the given seed: nothing when there is
// no baseline or it was recorded with another seed.
func recordedWork(root string, seed uint64) map[string]float64 {
	var baseline struct {
		Workloads map[string]struct {
			EndToEnd report `json:"end_to_end"`
		} `json:"workloads"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "bench", "baseline.json"))
	if err != nil || json.Unmarshal(raw, &baseline) != nil {
		return nil
	}
	out := map[string]float64{}
	for name, w := range baseline.Workloads {
		if v, ok := w.EndToEnd.Metrics["protocol_work"]; ok && w.EndToEnd.Seed == seed {
			out[name] = v
		}
	}
	return out
}
