package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestParsePhaseTimes(t *testing.T) {
	stderr := `done in 22.187s: 260000 simulated rounds, 11718 rounds/sec
time-to-backup: n=373909 mean=28.5h p50=11h p95=117h max=411h
phase times over 13 runs (total 1m2.5s):
  walk                 7.451s   18.6%
  merge                  20ms    0.0%
  maintenance         32.654s   81.3%
  transfer-drain         23ms    0.1%
  evaluation              0s    0.0%
p2psim: trailing line
`
	ps, err := parsePhaseTimes(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Runs != 13 || !near(ps.Total, 62.5) {
		t.Errorf("runs %d total %v, want 13 and 62.5", ps.Runs, ps.Total)
	}
	want := map[string]float64{"walk": 7.451, "merge": 0.020, "maintenance": 32.654, "transfer-drain": 0.023, "evaluation": 0}
	if len(ps.Phases) != len(want) {
		t.Errorf("phases %v, want %v", ps.Phases, want)
	}
	for name, s := range want {
		if !near(ps.Phases[name], s) {
			t.Errorf("%s = %v, want %v", name, ps.Phases[name], s)
		}
	}
	for _, bad := range []string{"", "done in 3s\n", "phase times over 2 runs (total soon):\n  walk 1s 100.0%\n"} {
		if _, err := parsePhaseTimes(bad); err == nil {
			t.Errorf("parsePhaseTimes(%q): no error", bad)
		}
	}
}

func TestParseTSV(t *testing.T) {
	tab, err := parseTSV("# transfer campaign: flashcrowd (durations in rounds)\n" +
		"#variant\trepairs\tttb_n\n" +
		"instant\t12008\t15945\n" +
		"dsl\t8193\t12055\n")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab.Header, []string{"variant", "repairs", "ttb_n"}) || len(tab.Rows) != 2 {
		t.Fatalf("header %v rows %d", tab.Header, len(tab.Rows))
	}
	col, err := tab.column("repairs")
	if err != nil || sum(col) != 20201 {
		t.Errorf("repairs = %v, %v", col, err)
	}
	if _, err := tab.column("variant"); err == nil {
		t.Error("a text column parsed as numbers")
	}
	if _, err := tab.column("losses"); err == nil {
		t.Error("a missing column was found")
	}
	if _, err := parseTSV("#a\tb\n1\n"); err == nil {
		t.Error("a short row was accepted")
	}
	if _, err := parseTSV("# only comments\n"); err == nil {
		t.Error("a table without rows was accepted")
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	if median(nil) != 0 || median([]float64{3}) != 3 || median([]float64{4, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
	xs := []float64{10, 20, 30, 40, 50}
	if quantile(xs, 0) != 10 || quantile(xs, 1) != 50 || !near(quantile(xs, 0.9), 46) {
		t.Error("quantile")
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if !near(q1, 3.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); !near(s, 27.5/13.5) {
		t.Errorf("spread = %v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s != (summary{Median: 2, Min: 1, Max: 3, N: 3}) {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	const s = int64(1e9)
	spans := []span{
		{ID: 1, Parent: 0, Name: "bench.op", Start: 0, End: 10 * s},
		{ID: 2, Parent: 1, Name: "sim.New", Start: 1 * s, End: 2 * s},
		{ID: 3, Parent: 1, Name: "sim.StepRound", Start: 2 * s, End: 9 * s},
		{ID: 4, Parent: 3, Name: "sim.StepRound", Start: 2 * s, End: 5 * s},
		{ID: 5, Parent: 3, Name: "sim.StepRound", Start: 4 * s, End: 8 * s},  // overlaps span 4 by 1 s
		{ID: 6, Parent: 3, Name: "sim.StepRound", Start: 8 * s, End: 12 * s}, // runs past its parent
		{ID: 7, Parent: 0, Name: "bench.primitives", Start: 10 * s, End: 11 * s},
	}
	self := selfSeconds(spans)
	want := map[int]float64{1: 2, 2: 1, 3: 0, 4: 3, 5: 4, 6: 4, 7: 1}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if !near(byName["sim.StepRound"], 11) || !near(byName["bench.op"], 2) {
		t.Errorf("self by name = %v", byName)
	}
	// Layer spans: 1 + 0 + 3 + 4 + 4 = 12 s of named self time over a 10 s root.
	if c := coverage(spans, 1); !near(c, 1.2) {
		t.Errorf("coverage = %v", c)
	}

	tr := newTracer("run")
	root := tr.begin("bench.op", 0)
	tr.end(root)
	tr.adopt([]span{{ID: 1, Name: "sim.New"}, {ID: 2, Parent: 1, Name: "inner"}}, root)
	if got := tr.spans[1:]; got[0].ID != 2 || got[0].Parent != root || got[1].ID != 3 || got[1].Parent != 2 || got[1].Run != "run" {
		t.Errorf("adopted spans = %+v", got)
	}
}

func TestRusageConversion(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 38, Usec: 706000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 184000},
		Maxrss: 625 * 1024,
	}
	if !near(cpuSeconds(ru), 38.89) {
		t.Errorf("cpuSeconds = %v", cpuSeconds(ru))
	}
	if rssMiB(ru) != 625 {
		t.Errorf("rssMiB = %v", rssMiB(ru))
	}
}

func TestWriteTreeIsSeeded(t *testing.T) {
	shape := treeShape{BigFiles: 2, BigSize: 4096, SmallFiles: 3, SmallSize: 512}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		seed uint64
	}{{"a", 7}, {"b", 7}, {"c", 8}} {
		if err := writeTree(filepath.Join(dir, c.name), shape, c.seed); err != nil {
			t.Fatal(err)
		}
	}
	digest := func(name string) string {
		d, n, err := digestFiles(filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != shape.bytes() {
			t.Errorf("tree %s holds %d bytes, want %d", name, n, shape.bytes())
		}
		return d
	}
	if digest("a") != digest("b") {
		t.Error("equal seeds gave different trees")
	}
	if digest("a") == digest("c") {
		t.Error("different seeds gave the same tree")
	}
	onlyBig, n, err := digestFiles(filepath.Join(dir, "a"), func(rel string) bool { return filepath.Dir(rel) == "big" })
	if err != nil || n != 2*4096 || onlyBig == digest("a") {
		t.Errorf("filtered digest: %d bytes, %v", n, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b", "small", "f000.bin"), []byte("changed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if changed, _, err := digestFiles(filepath.Join(dir, "b"), nil); err != nil || changed == digest("a") {
		t.Errorf("a changed file left the digest as it was (%v)", err)
	}
}

// The engine generation is chosen by field name, so that deleting
// sim.Config.Walk leaves the harness compiling and its v1 rows absent.
func TestSetStringField(t *testing.T) {
	type withWalk struct {
		Rounds int
		Walk   string
	}
	type withoutWalk struct{ Rounds int }
	type wrongKind struct{ Walk int }

	a := withWalk{Rounds: 3}
	if !setStringField(&a, "Walk", "v3") || a.Walk != "v3" || a.Rounds != 3 {
		t.Errorf("struct with the field: %+v", a)
	}
	if setStringField(&withoutWalk{}, "Walk", "v3") {
		t.Error("a struct without the field reported it set")
	}
	if setStringField(&wrongKind{}, "Walk", "v3") {
		t.Error("a non-string field reported it set")
	}
	if setStringField(a, "Walk", "v1") {
		t.Error("a struct passed by value reported it set")
	}

	cfg, engineSet, err := simConfig(simRequest{Workload: "sim-paper-churn", Seed: 5, Shards: 2, Engine: "v3"})
	if err != nil || !engineSet || cfg.Seed != 5 || cfg.Shards != 2 || cfg.Rounds != 2000 {
		t.Errorf("simConfig = %+v, %v, %v", cfg, engineSet, err)
	}
	if _, _, err := simConfig(simRequest{Workload: "nope"}); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

func TestRunPrimitivesIsTolerant(t *testing.T) {
	layer := map[string]float64{}
	errs := runPrimitives([]primitive{
		{metric: "ok_ns", scale: 1e9, prepare: func() (func(), error) { return func() { sink++ }, nil }},
		{metric: "cannot_prepare", prepare: func() (func(), error) { return nil, os.ErrNotExist }},
		{metric: "panics", prepare: func() (func(), error) { return func() { panic("format changed") }, nil }},
	}, layer)
	if len(errs) != 2 || layer["ok_ns"] <= 0 {
		t.Errorf("errors %v, layer %v", errs, layer)
	}
	if _, ok := layer["panics"]; ok {
		t.Error("a probe that panicked reported a value")
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	if row := judge(d, steady, steady); !row.OK {
		t.Errorf("equal sets disagree: %+v", row)
	}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.2
	}
	// Both sets run the same code: which one ran first must not matter.
	if row := judge(d, steady, slower); row.OK || !near(row.Differ, 0.2) {
		t.Errorf("a 20%% slower second set agrees: %+v", row)
	}
	if row := judge(d, slower, steady); row.OK || !near(row.Differ, 0.2) {
		t.Errorf("a 20%% slower first set agrees: %+v", row)
	}
	wide := []float64{5, 8, 9, 10, 10, 10, 11, 12, 15, 20}
	if row := judge(d, wide, wide); row.OK {
		t.Errorf("a spread beyond the bound agrees: %+v", row)
	}
	if row := judge(metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, wide, wide); !row.OK {
		t.Errorf("set-up time is judged on its medians only: %+v", row)
	}
	if w := worse(100, 80, "higher"); !near(w, 0.2) {
		t.Errorf("worse(higher) = %v", w)
	}
}

func TestRecordedWork(t *testing.T) {
	root := t.TempDir()
	if got := recordedWork(root, 1); len(got) != 0 {
		t.Errorf("without a baseline: %v", got)
	}
	if err := os.Mkdir(filepath.Join(root, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	baseline := `{"workloads": {
		"sim-adaptive": {"end_to_end": {"seed": 1, "metrics": {"protocol_work": 6.606}}},
		"sim-paper-churn": {"end_to_end": {"seed": 2, "metrics": {"protocol_work": 0.03}}}}}`
	if err := os.WriteFile(filepath.Join(root, "bench", "baseline.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	// Only a value recorded for the same seed can be compared exactly.
	if got := recordedWork(root, 1); len(got) != 1 || got["sim-adaptive"] != 6.606 {
		t.Errorf("recordedWork(seed 1) = %v", got)
	}
}

// BENCHMARK.json is generated from this package's tables; a hand edit of
// either side shows here.
func TestBenchmarkJSONMatches(t *testing.T) {
	if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Skip("no BENCHMARK.json above the package:", err)
	}
	if err := checkManifest(".."); err != nil {
		t.Error(err)
	}

	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d.Name == "setup_s"
	}
	if !hasSetup || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("contract limits: setup_s %v, %d per-layer metrics, %d workloads", hasSetup, len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
}
