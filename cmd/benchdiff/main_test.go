package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture drops a benchmark record into dir and returns its path.
func writeFixture(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// gate runs benchdiff with args plus a baseline record holding base, with
// bench (go test -bench output) on stdin.
func gate(t *testing.T, base, bench string, args ...string) (string, error) {
	t.Helper()
	old := writeFixture(t, t.TempDir(), "BENCH_x.json", base)
	var out strings.Builder
	err := run(append(args, old), strings.NewReader(bench), &out)
	return out.String(), err
}

const baseline = `[
  {"name": "BenchmarkKMeansSeq", "ns_per_op": 1000, "allocs_per_op": 10},
  {"name": "BenchmarkBootstrapQ3Seq", "ns_per_op": 500, "allocs_per_op": 0}
]`

func TestWithinThresholdPasses(t *testing.T) {
	out, err := gate(t, baseline, `goos: linux
pkg: repro/internal/bigdata
BenchmarkKMeansSeq      	      20	      1090 ns/op	  817648 B/op	      10 allocs/op
BenchmarkBootstrapQ3Seq 	    3000	       450 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/bigdata	2.473s
`, "-threshold", "0.10")
	if err != nil {
		t.Fatalf("within-threshold diff failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all 2 benchmarks within 10%") {
		t.Errorf("missing pass summary in output:\n%s", out)
	}
}

func TestNsRegressionFails(t *testing.T) {
	out, err := gate(t, baseline, `BenchmarkKMeansSeq 20 1200 ns/op 10 allocs/op
BenchmarkBootstrapQ3Seq 3000 500 ns/op 0 allocs/op
`, "-threshold", "0.10")
	if err == nil {
		t.Fatalf("20%% ns/op regression passed the 10%% gate:\n%s", out)
	}
	if !strings.Contains(err.Error(), "BenchmarkKMeansSeq") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("table does not flag the regression:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	out, err := gate(t, baseline, `BenchmarkKMeansSeq 20 1000 ns/op 40 allocs/op
BenchmarkBootstrapQ3Seq 3000 500 ns/op 0 allocs/op
`)
	if err == nil {
		t.Fatalf("4x allocs/op regression passed the gate:\n%s", out)
	}
}

const oneBench = `[{"name": "BenchmarkB", "ns_per_op": 1000, "allocs_per_op": 100}]`

// -alloc-threshold gates allocs/op independently of -threshold: an alloc
// growth inside the ns budget but past the alloc budget must fail.
func TestAllocThresholdIndependentOfNs(t *testing.T) {
	const cur = "BenchmarkB 10 1000 ns/op 140 allocs/op\n"
	// +40% allocs passes a loose 50% alloc threshold...
	if out, err := gate(t, oneBench, cur, "-threshold", "0.10", "-alloc-threshold", "0.50"); err != nil {
		t.Fatalf("+40%% allocs failed the 50%% alloc gate: %v\n%s", err, out)
	}
	// ...and fails a strict 10% alloc threshold even though ns/op is flat.
	out, err := gate(t, oneBench, cur, "-threshold", "0.50", "-alloc-threshold", "0.10")
	if err == nil {
		t.Fatalf("+40%% allocs passed the 10%% alloc gate:\n%s", out)
	}
	if !strings.Contains(err.Error(), "allocs/op 100 -> 140") {
		t.Errorf("error does not describe the alloc regression: %v", err)
	}
	if !strings.Contains(err.Error(), "50% ns / 10% allocs") {
		t.Errorf("error does not state the split thresholds: %v", err)
	}
}

// An unset -alloc-threshold follows -threshold, the historical behaviour.
func TestAllocThresholdDefaultsToNsThreshold(t *testing.T) {
	const cur = "BenchmarkB 10 1000 ns/op 140 allocs/op\n"
	if _, err := gate(t, oneBench, cur, "-threshold", "0.50"); err != nil {
		t.Fatalf("+40%% allocs failed the inherited 50%% gate: %v", err)
	}
	if out, err := gate(t, oneBench, cur, "-threshold", "0.10"); err == nil {
		t.Fatalf("+40%% allocs passed the inherited 10%% gate:\n%s", out)
	}
}

// A non-zero baseline gets one alloc of slack on top of its threshold:
// 10 * 1.1 + 1 = 12 passes, 13 does not.
func TestOneAllocSlackTolerated(t *testing.T) {
	const base = `[{"name": "BenchmarkB", "ns_per_op": 100, "allocs_per_op": 10}]`
	if _, err := gate(t, base, "BenchmarkB 10 100 ns/op 12 allocs/op\n"); err != nil {
		t.Fatalf("single-alloc pool jitter failed the gate: %v", err)
	}
	if out, err := gate(t, base, "BenchmarkB 10 100 ns/op 13 allocs/op\n"); err == nil {
		t.Fatalf("allocs past threshold plus slack passed the gate:\n%s", out)
	}
}

// A zero-alloc baseline gets no slack: its first allocation fails.
func TestZeroAllocBaselineHasNoSlack(t *testing.T) {
	const base = `[{"name": "BenchmarkB", "ns_per_op": 100, "allocs_per_op": 0}]`
	if _, err := gate(t, base, "BenchmarkB 10 100 ns/op 0 allocs/op\n"); err != nil {
		t.Fatalf("allocation-free run failed the gate: %v", err)
	}
	out, err := gate(t, base, "BenchmarkB 10 100 ns/op 1 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "allocs/op 0 -> 1") {
		t.Fatalf("0 -> 1 allocs/op not reported: %v\n%s", err, out)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	out, err := gate(t, baseline, "BenchmarkKMeansSeq 20 1000 ns/op 10 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped benchmark not reported: %v", err)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("table does not flag the missing benchmark:\n%s", out)
	}
}

// A metric the baseline gates must be in the current run: allocs/op
// without -benchmem is a gate hole, not a pass.
func TestMissingGatedMetricFails(t *testing.T) {
	_, err := gate(t, oneBench, "BenchmarkB 10 1000 ns/op\n")
	if err == nil || !strings.Contains(err.Error(), "allocs_per_op missing") {
		t.Fatalf("missing allocs/op not reported: %v", err)
	}
	_, err = gate(t, oneBench, "BenchmarkB 10 100 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "ns_per_op missing") {
		t.Fatalf("missing ns/op not reported: %v", err)
	}
}

// A metric the baseline does not record is not gated.
func TestUngatedMetricIgnored(t *testing.T) {
	const base = `[{"name": "BenchmarkB", "ns_per_op": 1000, "steps_per_op": 11}]`
	out, err := gate(t, base, "BenchmarkB 10 1000 ns/op 12.00 steps/op 9999 allocs/op\n")
	if err != nil {
		t.Fatalf("ungated metrics failed the gate: %v\n%s", err, out)
	}
}

func TestGomaxprocsSuffixNormalized(t *testing.T) {
	const base = `[{"name": "BenchmarkKMeansSeq", "ns_per_op": 1000, "allocs_per_op": 10}]`
	if _, err := gate(t, base, "BenchmarkKMeansSeq-8 20 1000 ns/op 10 allocs/op\n"); err != nil {
		t.Fatalf("-8 suffix broke name matching: %v", err)
	}
	rows, err := parse(strings.NewReader("BenchmarkKMeansSeq-8 20 1000 ns/op\n"))
	if err != nil || rows[0].name != "BenchmarkKMeansSeq" {
		t.Fatalf("parsed %+v, %v; want the name without its -8 suffix", rows, err)
	}
}

func TestCountRunsCollapseToBest(t *testing.T) {
	// -count 3 output: three rows per name; the best run (1000 ns, 10
	// allocs) is within threshold of the baseline even though the worst is
	// not.
	const base = `[{"name": "BenchmarkB", "ns_per_op": 1000, "allocs_per_op": 10}]`
	out, err := gate(t, base, `BenchmarkB 10 1400 ns/op 10 allocs/op
BenchmarkB 10 1000 ns/op 50 allocs/op
BenchmarkB 10 1250 ns/op 10 allocs/op
`)
	if err != nil {
		t.Fatalf("best-of-3 within threshold failed the gate: %v\n%s", err, out)
	}
	if got := best(mustParse(t, "BenchmarkB 1 3 ns/op 9 allocs/op\nBenchmarkB 1 2 ns/op 7 allocs/op\n"))["BenchmarkB"]; got[nsKey] != 2 || got[allocsKey] != 7 {
		t.Errorf("best = %v, want ns 2 and allocs 7", got)
	}
}

func mustParse(t *testing.T, bench string) []row {
	t.Helper()
	rows, err := parse(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// Every unit becomes a record key, "x/y" spelled "x_per_y".
func TestParseCustomUnits(t *testing.T) {
	rows := mustParse(t, "BenchmarkServeMixed  536642  2122 ns/op  145.7 model_p50_us  14528 model_p95_us  471207 req/s  456 B/op  8 allocs/op\n")
	want := map[string]float64{
		"ns_per_op": 2122, "model_p50_us": 145.7, "model_p95_us": 14528,
		"req_per_s": 471207, "B_per_op": 456, "allocs_per_op": 8,
	}
	if len(rows) != 1 || len(rows[0].vals) != len(want) {
		t.Fatalf("parsed %+v, want one row with %v", rows, want)
	}
	for k, v := range want {
		if rows[0].vals[k] != v {
			t.Errorf("%s = %v, want %v", k, rows[0].vals[k], v)
		}
	}
	const js = `{"name": "BenchmarkServeMixed", "ns_per_op": 2122, "model_p50_us": 145.7, "model_p95_us": 14528, "req_per_s": 471207, "B_per_op": 456, "allocs_per_op": 8}`
	if string(rows[0].json) != js {
		t.Errorf("row JSON\n got %s\nwant %s", rows[0].json, js)
	}
}

// Headers, PASS/ok trailers, log lines and skipped packages carry no
// results and are skipped.
func TestParseSkipsNonResultLines(t *testing.T) {
	rows := mustParse(t, `?   	repro/examples/quickstart	[no test files]
goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBootstrapQ3Seq 	    3039	    364471 ns/op	    5120 B/op	      58 allocs/op
--- BENCH: BenchmarkBootstrapQ3Seq
    bench_test.go:12: a log line
PASS
ok  	repro/internal/core	2.515s
`)
	if len(rows) != 1 || rows[0].name != "BenchmarkBootstrapQ3Seq" {
		t.Fatalf("parsed %+v, want the one result line", rows)
	}
}

// A Benchmark line that does not parse is an error, never a dropped row,
// and so is a failed run.
func TestParseRejectsMalformedInput(t *testing.T) {
	for _, bench := range []string{
		"",
		"PASS\nok  \trepro/internal/core\t0.1s\n",
		"BenchmarkX\n",
		"BenchmarkX 10\n",
		"BenchmarkX 10 5\n",
		"BenchmarkX 10 5 ns/op 7\n",
		"BenchmarkX ten 5 ns/op\n",
		"BenchmarkX 0 5 ns/op\n",
		"BenchmarkX 10 five ns/op\n",
		"BenchmarkX 10 NaN ns/op\n",
		"BenchmarkX 10 +Inf ns/op\n",
		"BenchmarkX 10 5 ns/op 6 ns/op\n",
		"BenchmarkX 10 5 name\n",
		"BenchmarkX 10 5 ns/op\xff\n",
		"BenchmarkX \t--- FAIL: BenchmarkX\n",
		"BenchmarkX 10 5 ns/op\nFAIL\trepro/internal/core\t0.1s\n",
		"--- FAIL: TestY (0.00s)\nBenchmarkX 10 5 ns/op\n",
	} {
		if rows, err := parse(strings.NewReader(bench)); err == nil {
			t.Errorf("parse(%q) = %+v, want an error", bench, rows)
		}
	}
}

// The gate reads the current run from stdin and the baseline from the
// named record.
func TestReadsCurrentRunFromStdin(t *testing.T) {
	dir := t.TempDir()
	old := writeFixture(t, dir, "BENCH_x.json", oneBench)
	var out strings.Builder
	err := run([]string{old}, strings.NewReader("BenchmarkB 10 1000 ns/op 100 allocs/op\n"), &out)
	if err != nil || !strings.Contains(out.String(), "all 1 benchmarks within 10%") {
		t.Fatalf("gate over stdin: %v\n%s", err, out.String())
	}
	if err := run([]string{old}, strings.NewReader(""), &out); err == nil {
		t.Error("empty stdin passed the gate")
	}
}

// -write replaces the rows of the benchmarks named on stdin, in place of
// their first old row, appends benchmarks new to the record, and keeps
// every other row byte for byte.
func TestWriteMergesRows(t *testing.T) {
	dir := t.TempDir()
	rec := writeFixture(t, dir, "BENCH_x.json", `[
  {"name": "BenchmarkA", "ns_per_op": 1.50, "allocs_per_op": 3},
  {"name": "BenchmarkB", "ns_per_op": 10, "allocs_per_op": 1},
  {"name": "BenchmarkC", "ns_per_op": 7, "p50_us": 145.7},
  {"name": "BenchmarkB", "ns_per_op": 11, "allocs_per_op": 1}
]
`)
	var out strings.Builder
	err := run([]string{"-write", rec}, strings.NewReader(`pkg: repro/x
BenchmarkD-4 	 100	 40 ns/op
BenchmarkB 	 100	 20 ns/op	 2 allocs/op
BenchmarkB 	 100	 21 ns/op	 2 allocs/op
PASS
`), &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[
  {"name": "BenchmarkA", "ns_per_op": 1.50, "allocs_per_op": 3},
  {"name": "BenchmarkB", "ns_per_op": 20, "allocs_per_op": 2},
  {"name": "BenchmarkB", "ns_per_op": 21, "allocs_per_op": 2},
  {"name": "BenchmarkC", "ns_per_op": 7, "p50_us": 145.7},
  {"name": "BenchmarkD", "ns_per_op": 40}
]
`
	if string(got) != want {
		t.Errorf("merged record\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(out.String(), "3 rows from stdin, 2 kept") {
		t.Errorf("write summary: %q", out.String())
	}
	// Writing the same rows again is a fixed point.
	if err := run([]string{"-write", rec}, strings.NewReader("BenchmarkD 100 40 ns/op\n"), &out); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(rec); !bytes.Equal(again, got) {
		t.Errorf("rewrite changed the record:\n%s", again)
	}
}

func TestWriteCreatesRecord(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "BENCH_new.json")
	var out strings.Builder
	if err := run([]string{"-write", rec}, strings.NewReader("BenchmarkA 10 5 ns/op 0 allocs/op\n"), &out); err != nil {
		t.Fatal(err)
	}
	// The written record gates the run it came from.
	if err := run([]string{rec}, strings.NewReader("BenchmarkA 10 5 ns/op 0 allocs/op\n"), &out); err != nil {
		t.Fatalf("fresh record does not gate its own run: %v\n%s", err, out.String())
	}
}

// A failed or empty run writes nothing.
func TestWriteRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	rec := writeFixture(t, dir, "BENCH_x.json", baseline)
	var out strings.Builder
	for _, bench := range []string{"", "FAIL\trepro/x [build failed]\n", "BenchmarkA 10\n"} {
		if err := run([]string{"-write", rec}, strings.NewReader(bench), &out); err == nil {
			t.Errorf("-write accepted %q", bench)
		}
	}
	if got, _ := os.ReadFile(rec); string(got) != baseline {
		t.Errorf("record changed by a rejected write:\n%s", got)
	}
}

// The parser reproduces what the Makefile's awk converters wrote: each
// testdata/bench_<leg>.txt is `go test -bench` output, and bench_<leg>.json
// the record the awk made of it. The awk kept a subset of the units, so
// every value it wrote must match; the parser may keep more.
func TestParserMatchesAwkRecords(t *testing.T) {
	txts, err := filepath.Glob(filepath.Join("testdata", "bench_*.txt"))
	if err != nil || len(txts) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, txt := range txts {
		f, err := os.Open(txt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", txt, err)
		}
		want, err := load(strings.TrimSuffix(txt, ".txt") + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, awk wrote %d", txt, len(got), len(want))
		}
		for i, w := range want {
			if got[i].name != w.name {
				t.Errorf("%s row %d: name %s, awk wrote %s", txt, i, got[i].name, w.name)
			}
			for k, v := range w.vals {
				if g, ok := got[i].vals[k]; !ok || g != v {
					t.Errorf("%s row %d (%s): %s = %v, awk wrote %v", txt, i, w.name, k, g, v)
				}
			}
		}
	}
}

func TestBadUsage(t *testing.T) {
	dir := t.TempDir()
	old := writeFixture(t, dir, "old.json", baseline)
	const bench = "BenchmarkKMeansSeq 20 1000 ns/op 10 allocs/op\n"
	var out strings.Builder
	for _, args := range [][]string{
		{},         // no record
		{old, old}, // the old two-record form
		{"-threshold", "-1", old},
		{filepath.Join(dir, "absent.json")},
		{writeFixture(t, dir, "obj.json", `{"not": "an array"}`)},
		{writeFixture(t, dir, "noname.json", `[{"ns_per_op": 1}]`)},
		{writeFixture(t, dir, "null.json", `[{"name": "BenchmarkB", "ns_per_op": null}]`)},
		{writeFixture(t, dir, "str.json", `[{"name": "BenchmarkB", "ns_per_op": "1"}]`)},
		{"-write", writeFixture(t, dir, "bad.json", `[1]`)},
	} {
		if err := run(args, strings.NewReader(bench), &out); err == nil {
			t.Errorf("benchdiff %q accepted", args)
		}
	}
}

// FuzzParse: the parser never panics, a parsed Benchmark line is never
// dropped, and each row survives the trip through a record. The seed
// corpus is testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, bench string) {
		rows, err := parse(strings.NewReader(bench))
		if err != nil {
			return
		}
		n := 0
		for _, line := range strings.Split(bench, "\n") {
			if strings.HasPrefix(line, "Benchmark") {
				n++
			}
		}
		if len(rows) != n {
			t.Fatalf("%d Benchmark lines, %d rows", n, len(rows))
		}
		back, err := decode(encode(rows))
		if err != nil {
			t.Fatalf("encoded rows do not decode: %v", err)
		}
		if len(back) != len(rows) {
			t.Fatalf("%d rows written, %d read back", len(rows), len(back))
		}
		for i, r := range rows {
			if back[i].name != r.name || len(back[i].vals) != len(r.vals) {
				t.Fatalf("row %d: wrote %+v, read %+v", i, r, back[i])
			}
			for k, v := range r.vals {
				if back[i].vals[k] != v {
					t.Fatalf("row %d: %s wrote %v, read %v", i, k, v, back[i].vals[k])
				}
			}
		}
	})
}
