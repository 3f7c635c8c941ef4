// Command benchjson runs the engine benchmarks and writes a JSON
// performance snapshot, so the repository's perf trajectory is a
// sequence of comparable machine-readable artifacts instead of ad-hoc
// log excerpts.
//
// Usage:
//
//	go run ./tools/benchjson                       # BENCH_10.json, engine benches
//	go run ./tools/benchjson -out snap.json -benchtime 500x
//	go run ./tools/benchjson -bench 'BenchmarkSimRound|BenchmarkQuiescentRound'
//	go run ./tools/benchjson -out new.json -compare BENCH_5.json
//
// It shells out to `go test -bench` (with -benchmem) in the module
// root and parses the standard benchmark output lines, so whatever the
// benchmarks measure is exactly what lands in the snapshot.
//
// With -compare OLD.json the run additionally diffs the fresh results
// against the baseline snapshot: it prints a per-benchmark delta table
// and exits nonzero when any shared benchmark regressed by more than
// -max-regress (fraction of the baseline ns/op, default 0.25), or when
// a baseline benchmark disappeared from the run — the bit-rot the CI
// gate exists to catch. Benchmarks new in this run are listed but not
// gated.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the emitted perf artifact.
type Snapshot struct {
	Bench      string      `json:"bench"`
	BenchTime  string      `json:"benchtime"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Timestamp  string      `json:"timestamp"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_10.json", "output JSON file")
	bench := flag.String("bench", "BenchmarkQuiescentRound|BenchmarkChurnRound|BenchmarkAdaptiveChurnRound|BenchmarkShardedChurnRound|BenchmarkSimRound|BenchmarkTransferRound|BenchmarkFlashCrowdRound|BenchmarkLedgerSessionFlip|BenchmarkMaintainerStep|BenchmarkUptime|BenchmarkViewScore|BenchmarkSupervisedVariant|BenchmarkInProcessVariant",
		"benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "200x", "go test -benchtime value (fixed counts keep snapshots comparable)")
	pkg := flag.String("pkg", ".", "package to benchmark")
	compare := flag.String("compare", "", "baseline snapshot JSON to diff against (exit nonzero on regression)")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs the -compare baseline")
	short := flag.Bool("short", false, "pass -short to go test (skips the benchmarks' largest populations)")
	timeout := flag.String("timeout", "60m", "go test -timeout value (the full bench set outgrew the 10m default)")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem", "-timeout", *timeout}
	if *short {
		args = append(args, "-short")
	}
	cmd := exec.Command("go", append(args, *pkg)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: go test -bench failed:", err)
		os.Exit(1)
	}

	snap := Snapshot{
		Bench:      *bench,
		BenchTime:  *benchtime,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.CPU = strings.TrimSpace(cpu)
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines matched %q\n", *bench)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))

	if *compare != "" && !compareSnapshots(*compare, snap, *maxRegress, *bench) {
		os.Exit(1)
	}
}

// compareSnapshots diffs the fresh snapshot against the baseline file,
// printing a per-benchmark delta table. It returns false when a shared
// benchmark regressed beyond maxRegress or a baseline benchmark the
// run's -bench selection should have produced is missing. Baseline
// entries outside the selection are ignored, so a gate may compare a
// fast subset against a full baseline.
func compareSnapshots(path string, snap Snapshot, maxRegress float64, benchRegex string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: -compare:", err)
		return false
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -compare %s: %v\n", path, err)
		return false
	}
	selected, err := regexp.Compile(benchRegex)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -bench %q: %v\n", benchRegex, err)
		return false
	}
	// Parallel-phase benchmarks scale with cores, so ns/op deltas across
	// differing core counts mix machine shape into the perf signal. Warn
	// — don't gate — so a single-core CI baseline is still usable and the
	// caveat is on the record. Old snapshots predate the gomaxprocs
	// field; fall back to num_cpu for them.
	baseProcs, nowProcs := base.GOMAXPROCS, snap.GOMAXPROCS
	if baseProcs == 0 {
		baseProcs = base.NumCPU
	}
	if nowProcs == 0 {
		nowProcs = snap.NumCPU
	}
	if baseProcs != nowProcs || base.NumCPU != snap.NumCPU {
		fmt.Fprintf(os.Stderr,
			"benchjson: warning: comparing across core counts (baseline %d cpu / %d procs, this run %d cpu / %d procs); parallel-phase deltas reflect the machine as much as the code\n",
			base.NumCPU, baseProcs, snap.NumCPU, nowProcs)
	}
	fresh := make(map[string]Benchmark, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		fresh[b.Name] = b
	}

	fmt.Printf("compare vs %s (limit +%.0f%% ns/op):\n", path, maxRegress*100)
	ok := true
	for _, old := range base.Benchmarks {
		if !selected.MatchString(old.Name) {
			continue // baseline benchmark outside this run's selection
		}
		now, found := fresh[old.Name]
		if !found {
			fmt.Printf("  %-44s MISSING (was %s)\n", old.Name, fmtNs(old.NsPerOp))
			ok = false
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = now.NsPerOp/old.NsPerOp - 1
		}
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("  %-44s %12s -> %12s  %+7.1f%%  %s\n",
			old.Name, fmtNs(old.NsPerOp), fmtNs(now.NsPerOp), delta*100, verdict)
		delete(fresh, old.Name)
	}
	for _, b := range snap.Benchmarks {
		if _, isNew := fresh[b.Name]; isNew {
			fmt.Printf("  %-44s %12s -> %12s  (new)\n", b.Name, "-", fmtNs(b.NsPerOp))
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: regression against baseline", path)
	}
	return ok
}

// fmtNs renders a ns/op figure compactly.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.3gns", ns)
	}
}

// gomaxprocsSuffix is the "-N" tail the testing package appends to
// benchmark names when GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one standard result line:
//
//	BenchmarkQuiescentRound/peers=25000-8   2000   5267 ns/op   12.3 MB/s   8 B/op   1 allocs/op
//
// The GOMAXPROCS suffix ("-8") is stripped from the name so snapshots
// taken on machines with different core counts compare by stable names
// (none of the engine benchmarks end in "-<digits>" themselves).
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Benchmark{}, false
	}
	name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "MB/s":
			b.MBPerSec = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, true
}
