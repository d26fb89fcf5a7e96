package experiments

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

func registry(t *testing.T) *exp.Registry {
	t.Helper()
	reg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func simEnv(seed int64, opts ...par.Option) *exp.Env {
	sim := clock.NewSim(seed)
	return &exp.Env{
		Seed:    seed,
		Clock:   sim,
		Metrics: telemetry.NewWithClock(sim),
		Par:     opts,
	}
}

// Satellite: registry completeness — the assembly carries exactly one
// experiment per Table 2 checkmark (cross-checked against the catalog,
// mirroring the scenarios invariant) plus the fixed engine-level set.
func TestRegistryCompleteness(t *testing.T) {
	reg := registry(t)

	want := map[string]bool{}
	for _, app := range catalog.Default().Applications {
		for _, tool := range app.SelectedTools {
			want[scenarios.Slug(app.ID, tool)] = true
		}
	}
	engine := map[string]bool{
		"report.full":       true,
		"sweep/faults":      true,
		"sweep/resume":      true,
		"sweep/slack":       true,
		"continuum/faas":    true,
		"continuum/energy":  true,
		"continuum/io":      true,
		"corpus/classify":   true,
		"corpus/stats":      true,
		"scengen/faults":    true,
		"scengen/placement": true,
		"scengen/energy":    true,
		"scengen/survey":    true,
		"scengen/corpus":    true,
	}

	seen := map[string]bool{}
	for _, name := range reg.Names() {
		if seen[name] {
			t.Errorf("duplicate experiment %s", name)
		}
		seen[name] = true
		if !want[name] && !engine[name] {
			t.Errorf("experiment %s maps to no Table 2 checkmark and no engine workload", name)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("Table 2 checkmark %s has no registered experiment", name)
		}
	}
	for name := range engine {
		if !seen[name] {
			t.Errorf("engine workload %s is not registered", name)
		}
	}
	if got, wantN := reg.Len(), len(want)+len(engine); got != wantN {
		t.Errorf("registry has %d experiments, want %d", got, wantN)
	}
	if reg.Len() != ExpectedExperiments {
		t.Errorf("registry has %d experiments, ExpectedExperiments says %d", reg.Len(), ExpectedExperiments)
	}
}

// resultsJSON canonicalizes a sweep's results for byte comparison,
// stripping the Cached provenance bit (the only field allowed to differ
// between cold and warm runs).
func resultsJSON(t *testing.T, results []*exp.Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		c := *r
		c.Provenance.Cached = false
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// Acceptance: the full registry sweep is byte-identical for any worker
// count — Workers(1), Workers(4) and Workers(8) produce the same artifacts,
// metrics, and provenance for every experiment.
func TestSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep ×3 worker counts")
	}
	reg := registry(t)
	base, err := reg.RunAll(context.Background(), simEnv(5, par.Workers(1)))
	if err != nil {
		t.Fatal(err)
	}
	want := resultsJSON(t, base)
	for _, workers := range []int{4, 8} {
		got, err := reg.RunAll(context.Background(), simEnv(5, par.Workers(workers)))
		if err != nil {
			t.Fatal(err)
		}
		if resultsJSON(t, got) != want {
			t.Fatalf("sweep results diverge between Workers(1) and Workers(%d)", workers)
		}
	}
}

// Acceptance: a warm-cache registry sweep executes zero experiment bodies
// and returns byte-identical results. Body execution is observed through
// the exp.hits/exp.misses counters and the scenario spans: the warm run
// records cache hits for every experiment and emits no scenario span.
func TestWarmSweepExecutesZeroBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep ×2")
	}
	reg := registry(t)
	store := cas.NewMemStore()

	cold := simEnv(9)
	cold.Store = store
	coldResults, err := reg.RunAll(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if misses := cold.Metrics.Counter("exp.misses"); misses != int64(reg.Len()) {
		t.Fatalf("cold sweep: %d misses, want %d", misses, reg.Len())
	}

	warm := simEnv(9)
	warm.Store = store
	warmResults, err := reg.RunAll(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if hits := warm.Metrics.Counter("exp.hits"); hits != int64(reg.Len()) {
		t.Fatalf("warm sweep: %d hits, want %d", hits, reg.Len())
	}
	if misses := warm.Metrics.Counter("exp.misses"); misses != 0 {
		t.Fatalf("warm sweep executed %d bodies", misses)
	}
	for _, sp := range warm.Metrics.Spans() {
		if strings.Contains(sp.Kind, "scenario") && strings.Contains(sp.Name, "×") {
			t.Error("warm sweep ran a scenario body (scenario span emitted)")
		}
	}
	for i := range coldResults {
		if coldResults[i].Provenance.Cached {
			t.Errorf("cold result %s marked cached", coldResults[i].Provenance.Experiment)
		}
		if !warmResults[i].Provenance.Cached {
			t.Errorf("warm result %s not marked cached", warmResults[i].Provenance.Experiment)
		}
	}
	if resultsJSON(t, coldResults) != resultsJSON(t, warmResults) {
		t.Fatal("warm sweep results diverge from cold sweep")
	}
}

// Different Env seeds reach every experiment body: the derived seed in the
// provenance differs per experiment and per root seed.
func TestSeedsReachExperiments(t *testing.T) {
	reg := registry(t)
	env1, env2 := simEnv(1), simEnv(2)
	r1, err := reg.Run(context.Background(), env1, "continuum/faas")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reg.Run(context.Background(), env2, "continuum/faas")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Provenance.Seed == r2.Provenance.Seed {
		t.Error("root seed does not reach the experiment's derived seed")
	}
	if r1.Provenance.Fingerprint != r2.Provenance.Fingerprint {
		t.Error("spec fingerprint depends on the Env seed")
	}
}

// The continuum what-ifs and the fault sweep tabulate what their scenarios
// compare: each table has its header columns, then one row per compared
// case in order, and each row's figures are also Result metrics.
func TestWhatIfTables(t *testing.T) {
	reg := registry(t)
	for _, c := range []struct {
		name    string
		columns []string // words of the header line
		rows    []string // the row labels, in table order
		metrics []string
	}{
		{"continuum/faas", []string{"scheduler", "p50", "p95"},
			[]string{"cloud-only", "edge-first", "energy-aware"},
			[]string{"p95_s/cloud-only", "p95_s/edge-first", "p95_s/energy-aware", "energy_j/energy-aware"}},
		{"continuum/energy", []string{"placer", "energy(1h)"},
			[]string{"consolidating", "spreading"},
			[]string{"energy_j/consolidating", "energy_j/spreading"}},
		{"continuum/io", nil,
			[]string{"staged:", "streamed:", "overlap:"},
			[]string{"staged_s", "streamed_s", "overlap_x"}},
		{"sweep/faults", []string{"p(fail)", "makespan", "retries"},
			[]string{"0.0", "0.1", "0.3", "0.5"},
			[]string{"makespan_s/p=0.0", "makespan_s/p=0.5", "retries/p=0.5"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := reg.Run(context.Background(), simEnv(7), c.name)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(res.Artifacts["table"], "\n"), "\n")
			if c.columns != nil {
				header := strings.Fields(lines[0])
				for _, col := range c.columns {
					if !slices.Contains(header, col) {
						t.Errorf("header %q lacks column %q", lines[0], col)
					}
				}
				lines = lines[1:]
			}
			if len(lines) != len(c.rows) {
				t.Fatalf("table has %d rows, want %d:\n%s", len(lines), len(c.rows), res.Artifacts["table"])
			}
			for i, row := range c.rows {
				if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != row {
					t.Errorf("row %d = %q, want a row for %s", i, lines[i], row)
				}
			}
			for _, m := range c.metrics {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %s missing from %v", m, res.Metrics)
				}
			}
		})
	}
}
