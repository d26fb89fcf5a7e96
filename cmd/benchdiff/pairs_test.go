package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// pairsFixture runs -pairs on the committed fixture BENCHMARK.json and two
// result files under testdata/pairs.
func pairsFixture(t *testing.T, parent, change string) (string, error) {
	t.Helper()
	dir := filepath.Join("testdata", "pairs")
	var out strings.Builder
	err := run([]string{"-pairs", filepath.Join(dir, "benchmark.json"),
		filepath.Join(dir, parent), filepath.Join(dir, change)}, strings.NewReader(""), &out)
	return out.String(), err
}

// The fixture's five metrics cover every verdict: a gain won 9 of 10, a
// median within the bound, a regression, a spread too wide to tell, and a
// wide spread that every change run beats. The quartiles are Python's
// statistics.quantiles(n=4) on the same values.
func TestPairsVerdicts(t *testing.T) {
	out, err := pairsFixture(t, "parent.jsonl", "change.jsonl")
	if err == nil || !strings.Contains(err.Error(), "op_p90_ms") || strings.Contains(err.Error(), "op_p50_ms") {
		t.Fatalf("want an error naming only op_p90_ms, got %v", err)
	}
	for _, want := range []string{
		"10 pairs",
		"| `ops_per_s` | 4.41 [4.362–4.45] | 4.985 [4.907–5.037] | 1.130 | 9/10 | gain |",
		"| `op_p50_ms` | 227.5 [225.8–230.5] | 227.5 [225.5–230.2] | 1.000 | 6/10 | within bound |",
		"| `op_p90_ms` | 250.5 [248.8–252] | 333 [329.8–336.5] | 1.329 | 0/10 | regression: median 33% worse |",
		"| `read_p85_ms` | 2.1 [1.675–2.65] | 2.1 [1.975–2.225] | 1.000 | 5/10 | unresolved: spread 46% parent, 12% change |",
		"| `setup_s` | 0.675 [0.5725–0.7625] | 0.37 [0.325–0.4425] | 0.548 | 10/10 | gain |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// A comparison without a regression passes.
func TestPairsSelfComparisonPasses(t *testing.T) {
	out, err := pairsFixture(t, "parent.jsonl", "parent.jsonl")
	if err != nil {
		t.Fatalf("parent against itself: %v\n%s", err, out)
	}
	if !strings.Contains(out, "| `ops_per_s` | 4.41 [4.362–4.45] | 4.41 [4.362–4.45] | 1.000 | 0/10 | within bound |") {
		t.Errorf("self comparison:\n%s", out)
	}
}

// Runs that cannot be compared fail the comparison before any verdict.
func TestPairsRejectsBadRuns(t *testing.T) {
	for change, want := range map[string]string{
		"short.jsonl":     "10 parent runs but 9 change runs",
		"incorrect.jsonl": `incorrect.jsonl:5: the run is not "correct": true`,
		"missing.jsonl":   "missing.jsonl:7: no value for op_p90_ms",
		"null.jsonl":      "null.jsonl:3: no value for read_p85_ms",
		"absent.jsonl":    "no such file",
	} {
		out, err := pairsFixture(t, "parent.jsonl", change)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an error containing %q, got %v", change, want, err)
		}
		if out != "" {
			t.Errorf("%s: printed a table before failing:\n%s", change, out)
		}
	}
	if _, err := pairsFixture(t, "benchmark.json", "parent.jsonl"); err == nil {
		t.Error("a file that is not result lines was accepted")
	}
}

// The repository's own BENCHMARK.json declares the metrics -pairs reads.
func TestPairsReadsRepoBenchmark(t *testing.T) {
	ms, err := loadMetrics(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 || ms[2].Name != "ops_per_s" || ms[2].Better != "higher" {
		t.Fatalf("end-to-end metrics: %+v", ms)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0];
	// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0].
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Table cells keep 4 significant digits and never use an exponent for
// throughputs in the tens of thousands.
func TestPairsNumberFormat(t *testing.T) {
	for v, want := range map[float64]string{21180.4: "21180", 227.54: "227.5", 0.068874: "0.06887", 4.3625: "4.362"} {
		if got := num(v); got != want {
			t.Errorf("num(%v) = %q, want %q", v, got, want)
		}
	}
}
