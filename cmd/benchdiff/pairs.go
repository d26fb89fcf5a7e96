package main

// The -pairs mode: the A/B rule of bench/README.md ("Comparing two
// commits") over alternating parent/change runs of bench/run.sh.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line bench/run.sh prints. A metric's value is a
// pointer because a percentile with too few samples above it is null.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value *float64 `json:"value"`
	} `json:"metrics"`
}

// loadMetrics reads the end-to-end metrics of a BENCHMARK.json.
func loadMetrics(path string) ([]metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "" || (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: bad end_to_end metric %+v", path, m)
		}
	}
	return spec.EndToEnd, nil
}

// loadRuns reads one result line per pair, skipping blank lines, and
// returns each metric's values in pair order. A run that failed, or that
// lacks a value for one of the metrics, is an error: it has no place in a
// comparison.
func loadRuns(path string, metrics []metric) (map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	vals := make(map[string][]float64, len(metrics))
	pairs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, 0, fmt.Errorf("%s:%d: the run is not \"correct\": true", path, n)
		}
		for _, m := range metrics {
			v := r.Metrics[m.Name].Value
			if v == nil {
				return nil, 0, fmt.Errorf("%s:%d: no value for %s", path, n, m.Name)
			}
			vals[m.Name] = append(vals[m.Name], *v)
		}
		pairs++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return vals, pairs, nil
}

// quartiles returns the first, second and third quartiles of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method); the second is the median. xs needs two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// pairs compares parent and change runs metric by metric and prints one
// markdown table row per metric. It returns an error naming every metric
// that regressed.
func pairs(w io.Writer, benchmarkPath, parentPath, changePath string) error {
	metrics, err := loadMetrics(benchmarkPath)
	if err != nil {
		return err
	}
	parent, np, err := loadRuns(parentPath, metrics)
	if err != nil {
		return err
	}
	change, nc, err := loadRuns(changePath, metrics)
	if err != nil {
		return err
	}
	if np != nc {
		return fmt.Errorf("%d parent runs but %d change runs: runs must come in pairs", np, nc)
	}
	if np < 2 {
		return fmt.Errorf("%d pairs: quartiles need at least 2", np)
	}

	fmt.Fprintf(w, "%d pairs\n\n", np)
	fmt.Fprintln(w, "| metric | parent median [q1–q3] | change median [q1–q3] | change/parent median | change better | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var regressed []string
	for _, m := range metrics {
		p, c := parent[m.Name], change[m.Name]
		v := judge(m, p, c)
		if strings.HasPrefix(v.verdict, "regression") {
			regressed = append(regressed, m.Name+": "+v.verdict)
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %.3f | %d/%d | %s |\n",
			m.Name, spread(v.p), spread(v.c), v.c[1]/v.p[1], v.won, np, v.verdict)
	}
	if len(regressed) > 0 {
		return errors.New("regressed past the bound:\n  " + strings.Join(regressed, "\n  "))
	}
	return nil
}

// spread formats quartiles as "median [q1–q3]".
func spread(q [3]float64) string {
	return fmt.Sprintf("%s [%s–%s]", num(q[1]), num(q[0]), num(q[2]))
}

// num formats v to 4 significant digits, without an exponent from 10^4 up.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// judgement is one metric's comparison.
type judgement struct {
	p, c    [3]float64 // quartiles of each side
	won     int        // pairs the change won
	verdict string
}

// judge applies bench/README's rule to one metric's paired values. A
// metric is unresolved when either side's interquartile range exceeds the
// bound as a share of its median, unless every change run beats every
// parent run. Otherwise it regressed when the change's median is worse
// than the parent's by more than the bound; it gained when the change won
// at least 9 pairs in 10 and the medians differ by more than the parent's
// interquartile range; and else it is within the bound.
func judge(m metric, p, c []float64) judgement {
	j := judgement{p: quartiles(p), c: quartiles(c)}
	sign := 1.0 // > 0 when the change is better
	if m.Better == "lower" {
		sign = -1
	}
	for i := range p {
		if sign*(c[i]-p[i]) > 0 {
			j.won++
		}
	}
	pSpread := (j.p[2] - j.p[0]) / j.p[1]
	cSpread := (j.c[2] - j.c[0]) / j.c[1]
	gap := sign * (j.c[1] - j.p[1]) // > 0 when the change's median is better
	switch {
	case (pSpread > m.Bound || cSpread > m.Bound) && !dominates(sign, p, c):
		j.verdict = fmt.Sprintf("unresolved: spread %.0f%% parent, %.0f%% change", 100*pSpread, 100*cSpread)
	case -gap > m.Bound*j.p[1]:
		j.verdict = fmt.Sprintf("regression: median %.0f%% worse", -100*gap/j.p[1])
	case 10*j.won >= 9*len(p) && gap > j.p[2]-j.p[0]:
		j.verdict = "gain"
	default:
		j.verdict = "within bound"
	}
	return j
}

// dominates reports whether every change run beats every parent run.
func dominates(sign float64, p, c []float64) bool {
	for _, x := range p {
		for _, y := range c {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}
