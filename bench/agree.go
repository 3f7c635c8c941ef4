package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// worse returns by what share of a the value b is worse than a, given
// which direction is better; negative when b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// agreeRuns is how many runs, each with another seed, make one set of
// -agree: what the acceptance check takes its quartiles from.
const agreeRuns = 10

// agreeRow is one end-to-end metric of one workload over two sets of
// runs of the same code.
type agreeRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Bound    float64    `json:"bound"`
	Median   [2]float64 `json:"median"`
	Spread   [2]float64 `json:"spread"`    // (q3-q1)/median
	Differ   float64    `json:"differ_by"` // the worse median against the better one
	OK       bool       `json:"ok"`
	Why      string     `json:"why,omitempty"`
}

// judge compares two sets of values of a metric taken from the same
// code: each set's interquartile spread stays within the bound (set-up
// time excepted), and neither median is worse than the other by more
// than the bound. Which set ran first must not decide the verdict, so
// the difference is taken both ways round.
func judge(d metricDef, first, second []float64) agreeRow {
	row := agreeRow{Metric: d.Name, Unit: d.Unit, Bound: d.Bound, OK: true}
	for i, xs := range [][]float64{first, second} {
		row.Median[i], row.Spread[i] = median(xs), spread(xs)
		if d.Name != "setup_s" && row.Spread[i] > d.Bound {
			row.OK, row.Why = false, fmt.Sprintf("spread of set %d exceeds the bound", i+1)
		}
	}
	row.Differ = max(worse(row.Median[0], row.Median[1], d.Better), worse(row.Median[1], row.Median[0], d.Better))
	if row.Differ > d.Bound {
		row.OK, row.Why = false, "the medians differ by more than the bound"
	}
	return row
}

// runAgree makes the untraced runs of the named workload, or of all,
// twice over, each set with the seeds 1..agreeRuns, every run a fresh process
// of this binary, and judges each workload's metrics. Counts that repeat exactly for a
// seed (protocol_work, the output digest) must be identical between the
// sets. It returns the process exit code.
func runAgree(root, only string, seconds float64) int {
	var names []string
	for _, w := range workloads {
		if only == "all" || only == w.name {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type key struct {
		workload string
		set      int
	}
	values := map[key]map[string][]float64{}
	digests := map[key][]string{}
	for set := 0; set < 2; set++ {
		for _, name := range names {
			k := key{name, set}
			values[k] = map[string][]float64{}
			for seed := 1; seed <= agreeRuns; seed++ {
				p := runProc(context.Background(), root, self, "--workload", name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", "0")
				if p.Err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n%s", name, seed, p.Err, p.Stderr)
					return 1
				}
				var line resultLine
				if err := json.Unmarshal([]byte(lastLine(p.Stdout)), &line); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: result line: %v\n", name, seed, err)
					return 1
				}
				if !line.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n%s", name, seed, line.Failed, line.Attempted, p.Stdout)
					return 1
				}
				for name, m := range line.Metrics {
					values[k][name] = append(values[k][name], m.Value)
				}
				var rep report
				if raw, err := os.ReadFile(filepath.Join(root, "bench", "out", "untraced-"+name+".json")); err == nil {
					_ = json.Unmarshal(raw, &rep) // an unreadable report only leaves the digest empty, which is then compared as such
				}
				digests[k] = append(digests[k], rep.Digest)
				fmt.Fprintf(os.Stderr, "set %d  %-20s seed %2d  wall %.3f s\n", set+1, name, seed, line.Metrics["wall_s"].Value)
			}
		}
	}

	var rows []agreeRow
	ok := true
	fmt.Printf("%-20s %-14s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "differ", "bound")
	for _, name := range names {
		a, b := key{name, 0}, key{name, 1}
		for _, d := range endToEnd {
			row := judge(d, values[a][d.Name], values[b][d.Name])
			row.Workload = name
			if d.Name == "protocol_work" && fmt.Sprint(values[a][d.Name]) != fmt.Sprint(values[b][d.Name]) {
				row.OK, row.Why = false, "does not repeat exactly for equal seeds"
			}
			rows = append(rows, row)
			ok = ok && row.OK
			fmt.Printf("%-20s %-14s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %5.0f%% %s\n", name, d.Name,
				row.Median[0], row.Median[1], 100*row.Spread[0], 100*row.Spread[1], 100*row.Differ, 100*d.Bound, row.Why)
		}
		if strings.Join(digests[a], ",") != strings.Join(digests[b], ",") {
			ok = false
			fmt.Printf("%-20s output digests differ between the sets for equal seeds\n", name)
		}
	}
	if err := writeJSON(filepath.Join(root, "bench", "out", "agree.json"), rows); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		fmt.Println("DISAGREE: fix the metric or widen its bound with this evidence; never drop a check")
		return 1
	}
	fmt.Println("agree: every metric within its bound on every workload")
	return 0
}
