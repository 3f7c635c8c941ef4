package main

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// phaseSummary is the campaign-wide breakdown `p2psim -phasetimes`
// prints on standard error: seconds per engine phase, summed over runs.
type phaseSummary struct {
	Runs   int
	Total  float64
	Phases map[string]float64
}

var (
	phaseHeadRE = regexp.MustCompile(`^phase times over (\d+) runs \(total ([^)]+)\):$`)
	phaseLineRE = regexp.MustCompile(`^\s+([a-z-]+)\s+(\S+)\s+[\d.]+%$`)
)

// parsePhaseTimes reads the -phasetimes summary out of p2psim's
// standard error. It fails when the summary is missing or malformed, so
// that a changed format reports its metrics absent instead of wrong.
func parsePhaseTimes(stderr string) (phaseSummary, error) {
	var ps phaseSummary
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if ps.Phases == nil {
			m := phaseHeadRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			total, err := time.ParseDuration(m[2])
			if err != nil {
				return ps, fmt.Errorf("phase times: total %q: %w", m[2], err)
			}
			ps.Runs, _ = strconv.Atoi(m[1])
			ps.Total = total.Seconds()
			ps.Phases = map[string]float64{}
			continue
		}
		m := phaseLineRE.FindStringSubmatch(line)
		if m == nil {
			break
		}
		d, err := time.ParseDuration(m[2])
		if err != nil {
			return ps, fmt.Errorf("phase times: %s %q: %w", m[1], m[2], err)
		}
		ps.Phases[m[1]] = d.Seconds()
	}
	if len(ps.Phases) == 0 {
		return ps, fmt.Errorf("phase times: no summary on standard error")
	}
	return ps, nil
}

// tsvTable is one of the repository's TSV outputs: '#' lines are
// comments, the last of them before the data names the columns.
type tsvTable struct {
	Header []string
	Rows   [][]string
}

func parseTSV(data string) (tsvTable, error) {
	var t tsvTable
	for _, line := range strings.Split(strings.TrimRight(data, "\n"), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			if len(t.Rows) == 0 {
				t.Header = strings.Split(strings.TrimPrefix(line, "#"), "\t")
			}
		default:
			row := strings.Split(line, "\t")
			if len(row) != len(t.Header) {
				return t, fmt.Errorf("tsv: row %q has %d fields, header has %d", line, len(row), len(t.Header))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	if len(t.Rows) == 0 {
		return t, fmt.Errorf("tsv: no data rows")
	}
	return t, nil
}

// column returns the numeric values of the named column.
func (t tsvTable) column(name string) ([]float64, error) {
	for i, h := range t.Header {
		if h != name {
			continue
		}
		out := make([]float64, len(t.Rows))
		for r, row := range t.Rows {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("tsv: column %s row %d: %w", name, r, err)
			}
			out[r] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("tsv: no column %q in %v", name, t.Header)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
