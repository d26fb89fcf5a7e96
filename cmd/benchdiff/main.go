// Command benchdiff is the bench-regression gate behind `make bench-gate`.
// It reads `go test -bench` output on stdin and compares it against a
// committed benchmark record, or with -write merges it into that record.
// With -pairs it compares two commits end to end instead.
//
// Usage:
//
//	go test -run '^$' -bench RE -benchmem ... | benchdiff [-threshold 0.10] [-alloc-threshold 0.10] BENCH_x.json
//	go test -run '^$' -bench RE -benchmem ... | benchdiff -write BENCH_x.json
//	benchdiff -pairs BENCHMARK.json parent.jsonl change.jsonl
//
// A record is a JSON array with one object per benchmark line: its "name"
// plus one key per unit on the line, with "x/y" spelled "x_per_y"
// (ns_per_op, B_per_op, allocs_per_op, steps_per_op, req_per_s,
// model_p50_us, …). `go test -count N` gives N rows per name.
//
// Only ns/op and allocs/op are gated, and only where the baseline records
// them. A benchmark regresses when its ns/op exceeds the baseline's by more
// than -threshold, or its allocs/op exceeds its own threshold
// (-alloc-threshold, defaulting to -threshold) with one alloc of absolute
// slack (sync.Pool warm-up makes allocs/op jitter by ±1 between runs; a
// real leak moves it by orders of magnitude). A zero-alloc baseline gets no
// slack: its first allocation is the regression that matters. A benchmark,
// or a gated metric, missing from the current run fails the gate too: a
// silently dropped benchmark is a gate hole, not a pass. Names are compared
// without the -N GOMAXPROCS suffix, and duplicate rows for one name
// collapse to the best run per metric, so the gate compares best-of-N
// against best-of-N and scheduler noise on a shared machine stays out of
// the verdict.
//
// -write replaces the rows of every benchmark named on stdin and keeps
// every other row of the record byte for byte, so a leg can be re-measured
// one benchmark at a time. A missing record is created.
//
// -pairs reads the end-to-end metrics of BENCHMARK.json and two files that
// hold the last line of one `bash bench/run.sh` run per line, the parent's
// and the change's, line i of each being pair i. It prints, per metric,
// each side's median and quartiles (as Python's statistics.quantiles(n=4)
// computes them), the change/parent median ratio, the pairs the change
// won and the verdict of bench/README.md's rule, as a markdown table. It
// fails on a run that is not correct, on unequal run counts, on a metric
// without a value, and on a regression past the metric's bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The record keys of the two gated metrics; lower is better for both.
const (
	nsKey     = "ns_per_op"
	allocsKey = "allocs_per_op"
)

// A row is one benchmark result: its name, its metrics by record key, and
// its JSON form as a record stores it.
type row struct {
	name string
	vals map[string]float64
	json []byte
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "max tolerated fractional ns/op regression (0.10 = +10%)")
	allocThreshold := fs.Float64("alloc-threshold", -1,
		"max tolerated fractional allocs/op regression; negative = same as -threshold")
	write := fs.Bool("write", false, "merge the benchmarks on stdin into the record instead of gating them")
	pairMode := fs.Bool("pairs", false, "compare parent and change bench/run.sh results: args BENCHMARK.json parent change")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pairMode {
		if fs.NArg() != 3 {
			return fmt.Errorf("-pairs wants 3 arguments (BENCHMARK.json, parent results, change results), got %d", fs.NArg())
		}
		return pairs(stdout, fs.Arg(0), fs.Arg(1), fs.Arg(2))
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one argument (the BENCH_*.json record), got %d", fs.NArg())
	}
	if *threshold < 0 {
		return fmt.Errorf("negative threshold %v", *threshold)
	}
	if *allocThreshold < 0 {
		*allocThreshold = *threshold
	}
	path := fs.Arg(0)
	base, err := load(path)
	if err != nil && !(*write && errors.Is(err, os.ErrNotExist)) {
		return err
	}
	cur, err := parse(stdin)
	if err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	if *write {
		return writeRecord(stdout, path, base, cur)
	}
	return diff(stdout, path, best(base), best(cur), *threshold, *allocThreshold)
}

// parse reads `go test -bench` output. Every line that starts with
// "Benchmark" must be a well-formed result line, since a row dropped here
// would read as a missing benchmark at best and a pass at worst; other
// lines (goos:, pkg:, PASS, ok, …) are ignored, except the FAIL lines of a
// failed run: a pipe into benchdiff drops go test's exit status.
func parse(in io.Reader) ([]row, error) {
	var rows []row
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w: %q", n, err, line)
			}
			rows = append(rows, r)
		case strings.HasPrefix(line, "FAIL"), strings.HasPrefix(line, "--- FAIL"):
			return nil, fmt.Errorf("line %d: go test failed: %q", n, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return rows, nil
}

// parseLine reads one result line: name, iteration count, then one or
// more "value unit" pairs.
func parseLine(line string) (row, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !utf8.ValidString(line) {
		return row{}, errors.New("malformed benchmark line")
	}
	if n, err := strconv.ParseUint(f[1], 10, 64); err != nil || n == 0 {
		return row{}, errors.New("bad iteration count")
	}
	r := row{name: gomaxprocsSuffix.ReplaceAllString(f[0], ""), vals: make(map[string]float64, len(f)/2-1)}
	var js bytes.Buffer
	js.WriteString(`{"name": `)
	js.Write(quote(r.name))
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			return row{}, fmt.Errorf("bad value %q", f[i])
		}
		key := strings.ReplaceAll(f[i+1], "/", "_per_")
		if _, dup := r.vals[key]; dup || key == "name" {
			return row{}, fmt.Errorf("bad unit %q", f[i+1])
		}
		r.vals[key] = v
		fmt.Fprintf(&js, ", %s: %s", quote(key), strconv.FormatFloat(v, 'f', -1, 64))
	}
	js.WriteString("}")
	r.json = js.Bytes()
	return r, nil
}

func quote(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// load reads a record, keeping each row's JSON as committed.
func load(path string) ([]row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func decode(raw []byte) ([]row, error) {
	var objs []json.RawMessage
	if err := json.Unmarshal(raw, &objs); err != nil {
		return nil, err
	}
	rows := make([]row, len(objs))
	for i, obj := range objs {
		var fields map[string]any
		dec := json.NewDecoder(bytes.NewReader(obj))
		dec.UseNumber()
		if err := dec.Decode(&fields); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		r := row{vals: make(map[string]float64, len(fields)), json: obj}
		for k, v := range fields {
			name, isName := v.(string)
			num, isNum := v.(json.Number)
			x, err := num.Float64()
			switch {
			case k == "name" && isName:
				r.name = name
			case k != "name" && isNum && err == nil:
				r.vals[k] = x
			default:
				return nil, fmt.Errorf("row %d: bad %q: %v", i, k, v)
			}
		}
		if r.name == "" {
			return nil, fmt.Errorf("row %d has no name", i)
		}
		rows[i] = r
	}
	return rows, nil
}

// encode renders rows as a record, one row per line.
func encode(rows []row) []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range rows {
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.WriteString("  ")
		buf.Write(r.json)
	}
	buf.WriteString("\n]\n")
	return buf.Bytes()
}

// gomaxprocsSuffix is the -N tag `go test -bench` appends to benchmark
// names when GOMAXPROCS is not 1. The parser strips it, so records hold
// names without it.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// best collapses the rows of each benchmark to the lowest value of each
// gated metric it reports.
func best(rows []row) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, r := range rows {
		m := out[r.name]
		if m == nil {
			m = make(map[string]float64)
			out[r.name] = m
		}
		for _, k := range []string{nsKey, allocsKey} {
			if v, ok := r.vals[k]; ok {
				if prev, seen := m[k]; !seen || v < prev {
					m[k] = v
				}
			}
		}
	}
	return out
}

// diff prints a comparison table and returns an error naming every
// benchmark that regressed past the threshold or lost a gated metric.
func diff(w io.Writer, basePath string, base, cur map[string]map[string]float64, threshold, allocThreshold float64) error {
	const line = "%-32s %14s %14s %8s %10s %10s  %s\n"
	fmt.Fprintf(w, line, "benchmark", "old ns/op", "new ns/op", "Δns", "old allocs", "new allocs", "verdict")

	var regressions []string
	for _, n := range sortedKeys(base) {
		b := base[n]
		c, ok := cur[n]
		if !ok {
			fmt.Fprintf(w, line, n, cell(b, nsKey), "-", "-", cell(b, allocsKey), "-", "MISSING")
			regressions = append(regressions, n+" missing from current run")
			continue
		}
		var reasons []string
		for _, k := range []string{nsKey, allocsKey} {
			if _, gated := b[k]; gated {
				if _, has := c[k]; !has {
					reasons = append(reasons, k+" missing")
				}
			}
		}
		delta := "-"
		if bns, cns := b[nsKey], c[nsKey]; bns > 0 && cns > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cns/bns-1))
			if cns > bns*(1+threshold) {
				reasons = append(reasons, "ns/op "+delta)
			}
		}
		if ba, ok := b[allocsKey]; ok {
			// One alloc of slack for pool warm-up jitter, but none on a
			// zero-alloc baseline.
			slack := 1.0
			if ba == 0 {
				slack = 0
			}
			if ca, ok := c[allocsKey]; ok && ca > ba*(1+allocThreshold)+slack {
				reasons = append(reasons, fmt.Sprintf("allocs/op %.0f -> %.0f", ba, ca))
			}
		}
		verdict := "ok"
		if len(reasons) > 0 {
			verdict = "REGRESSED (" + strings.Join(reasons, ", ") + ")"
			regressions = append(regressions, n+": "+strings.Join(reasons, ", "))
		}
		fmt.Fprintf(w, line, n, cell(b, nsKey), cell(c, nsKey), delta, cell(b, allocsKey), cell(c, allocsKey), verdict)
	}
	for _, n := range sortedKeys(cur) {
		if _, ok := base[n]; !ok {
			fmt.Fprintf(w, line, n, "-", cell(cur[n], nsKey), "-", "-", cell(cur[n], allocsKey), "new (not in baseline)")
		}
	}
	limits := fmt.Sprintf("%.0f%%", threshold*100)
	if allocThreshold != threshold {
		limits = fmt.Sprintf("%.0f%% ns / %.0f%% allocs", threshold*100, allocThreshold*100)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %s vs %s:\n  %s",
			len(regressions), limits, basePath, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "all %d benchmarks within %s of %s\n", len(base), limits, basePath)
	return nil
}

// cell formats one metric for the table, "-" when it is absent.
func cell(m map[string]float64, key string) string {
	if v, ok := m[key]; ok {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return "-"
}

func sortedKeys(m map[string]map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeRecord merges cur into the old rows of the record at path: the
// rows of each benchmark named in cur take the place of that benchmark's
// first old row, benchmarks new to the record go at the end, and every
// other row stays as it was.
func writeRecord(w io.Writer, path string, old, cur []row) error {
	fresh := make(map[string][]row)
	var order []string
	for _, r := range cur {
		if _, seen := fresh[r.name]; !seen {
			order = append(order, r.name)
		}
		fresh[r.name] = append(fresh[r.name], r)
	}
	var out []row
	for _, r := range old {
		rs, named := fresh[r.name]
		if !named {
			out = append(out, r)
			continue
		}
		out = append(out, rs...)
		fresh[r.name] = nil // placed; later old rows of this name are dropped
	}
	for _, n := range order {
		out = append(out, fresh[n]...)
	}

	if err := os.WriteFile(path, encode(out), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d rows from stdin, %d kept\n", path, len(cur), len(out)-len(cur))
	return nil
}
