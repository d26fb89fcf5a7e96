package scenarios

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/telemetry"
)

// The headline completeness claim: the registry covers exactly the 28
// checkmarks of the paper's Table 2.
func TestRegistryMatchesTable2(t *testing.T) {
	reg := Registry()
	if len(reg) != 28 {
		t.Fatalf("registry has %d scenarios, Table 2 has 28 checkmarks", len(reg))
	}
	if err := ValidateAgainstCatalog(catalog.Default(), reg); err != nil {
		t.Fatal(err)
	}
}

// Every scenario runs green under a shared simulated environment.
func TestAllScenariosRun(t *testing.T) {
	sim := clock.NewSim(1)
	env := &exp.Env{Seed: 1, Clock: sim, Metrics: telemetry.NewWithClock(sim)}
	for _, s := range Registry() {
		s := s
		t.Run(s.Key(), func(t *testing.T) {
			t.Parallel()
			if err := s.Run(context.Background(), env); err != nil {
				t.Fatalf("%s (%s): %v", s.Key(), s.Desc, err)
			}
		})
	}
}

// The experiment adapters expose exactly the scenarios, with stable
// distinct names, and pass under a shared Env through the registry.
func TestExperimentsMirrorScenarios(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(Registry()) {
		t.Fatalf("%d experiments for %d scenarios", len(exps), len(Registry()))
	}
	reg := exp.NewRegistry()
	for _, e := range exps {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	sim := clock.NewSim(2)
	env := &exp.Env{Seed: 7, Clock: sim, Metrics: telemetry.NewWithClock(sim)}
	results, err := reg.RunAll(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Artifacts["status"] != "pass" {
			t.Fatalf("experiment %s did not pass", r.Provenance.Experiment)
		}
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		Slug("3.1", "FastFlow"):         "scenario/3.1/fastflow",
		Slug("3.2", "Jupyter Workflow"): "scenario/3.2/jupyter-workflow",
		Slug("3.7", "Mingotti et al."):  "scenario/3.7/mingotti-et-al",
		Slug("3.4", "MoveQUIC"):         "scenario/3.4/movequic",
		Slug("3.8", "BDMaaS+"):          "scenario/3.8/bdmaas",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("Slug = %q, want %q", got, want)
		}
	}
}

func TestValidateCatchesDrift(t *testing.T) {
	c := catalog.Default()
	reg := Registry()

	// Extra scenario not in Table 2.
	extra := append(append([]Scenario(nil), reg...), Scenario{App: "3.1", Tool: "TORCH"})
	if err := ValidateAgainstCatalog(c, extra); err == nil {
		t.Error("phantom checkmark accepted")
	}

	// Missing scenario.
	if err := ValidateAgainstCatalog(c, reg[1:]); err == nil {
		t.Error("missing checkmark accepted")
	}

	// Duplicate scenario.
	dup := append(append([]Scenario(nil), reg...), reg[0])
	if err := ValidateAgainstCatalog(c, dup); err == nil {
		t.Error("duplicate scenario accepted")
	}
}

func TestScenarioDescriptions(t *testing.T) {
	for _, s := range Registry() {
		if s.Desc == "" {
			t.Errorf("scenario %s has no description", s.Key())
		}
		if len(s.Ops) == 0 {
			t.Errorf("scenario %s has no composition", s.Key())
		}
	}
}

// hashUniform decides every generated fault set: pin a few values.
func TestHashUniformPinned(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		parts []string
		want  float64
	}{
		{0, nil, 0.17785870383089264},
		{1, []string{"ab", "c"}, 0.05434757943319157},
		{1, []string{"a", "bc"}, 0.8784397714692586},
		{-9, []string{"fault", "3.2"}, 0.2288351613381926},
	} {
		if got := hashUniform(c.seed, c.parts...); got != c.want {
			t.Errorf("hashUniform(%d, %q) = %v, want %v", c.seed, c.parts, got, c.want)
		}
	}
}

// MutateCorpus classifies its corpus a word at a time on one scratch: what
// it allocates does not grow with the corpus size.
func TestMutateCorpusAllocsPerEntry(t *testing.T) {
	sim := clock.NewSim(1)
	env := &exp.Env{Seed: 1, Clock: sim, Metrics: telemetry.NewWithClock(sim)}
	allocs := func(n int) float64 {
		op := MutateCorpus{N: n, Overlap: 0.3, Noise: 8, Keywords: 4, Stream: "allocs"}
		return testing.AllocsPerRun(10, func() {
			if err := op.Apply(context.Background(), env, &State{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(16), allocs(4096); few != many {
		t.Fatalf("MutateCorpus allocates %.0f times for 16 entries and %.0f for 4096", few, many)
	}
}

// VM IDs key the fleet's assignment, so they keep the bytes of "vm-%02d".
func TestVMIDMatchesFormat(t *testing.T) {
	for i := 0; i <= 150; i++ {
		if got, want := vmID(i), fmt.Sprintf("vm-%02d", i); got != want {
			t.Fatalf("vmID(%d) = %q, want %q", i, got, want)
		}
	}
}
