// Package scengen generates seeded what-if configurations over the
// scenario substrate: where internal/scenarios pins the 28 Table 2
// checkmarks, scengen composes thousands of novel configurations from the
// same op vocabulary — fault plans, placement policies, energy fleets,
// survey perturbations, corpus mutations — each a pure function of
// (seed, index), in the style of internal/corpus entries.
//
// Configurations are not golden-tested (there are too many, and their
// exact numbers are not the point); they are checked by property-based
// invariants instead: determinism across worker counts, conservation of
// work/energy/votes, and monotonicity under added faults. Families run as
// registered experiments with per-shard memoization, so warm re-runs
// execute zero configuration bodies.
package scengen

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/scenarios"
)

// Config is one generated what-if configuration: a composition of
// substrate ops, pure in (family seed, index).
type Config struct {
	Family string
	Index  int
	Ops    []scenarios.Op
}

// Family is one axis of the what-if exploration: a named, sized stream of
// generated configurations.
type Family struct {
	Name string
	Desc string
	// Size is the registered sweep size. It is a fixed constant — it feeds
	// the experiment Spec and therefore every memo key derived from it —
	// never scaled down for race builds (tests reduce their own sampling
	// instead).
	Size int
	gen  func(r *rng.Rand, stream string) []scenarios.Op
}

// SeedStream names the Env stream a family draws its generation seed from.
func (f Family) SeedStream() string { return "scengen/" + f.Name }

// Config generates configuration i of the family under env: the drawing
// generator is seeded with env.IndexedSeed, and every op-internal stream
// is named by (family, i), so the configuration is a pure function of
// (env.Seed, family, i) — independent of every other configuration.
func (f Family) Config(env *exp.Env, i int) Config {
	r := rng.New(env.IndexedSeed(f.SeedStream(), i))
	stream := fmt.Sprintf("scengen/%s/%06d", f.Name, i)
	return Config{Family: f.Name, Index: i, Ops: f.gen(r, stream)}
}

// Families returns the registered what-if axes. Sizes total 1088
// configurations — the ≥1000 floor the property harness asserts over.
func Families() []Family {
	return []Family{
		{
			Name: "faults",
			Desc: "fault-inflated workflows: random DAGs under nested fault plans, placed and simulated",
			Size: 320,
			gen:  genFaults,
		},
		{
			Name: "placement",
			Desc: "placement-policy what-ifs: random DAGs under every policy (including deadline slack)",
			Size: 256,
			gen:  genPlacement,
		},
		{
			Name: "energy",
			Desc: "energy-profile what-ifs: seeded VM fleets under consolidating vs spreading placement",
			Size: 256,
			gen:  genEnergy,
		},
		{
			Name: "survey",
			Desc: "survey perturbations: Table 2 selections re-answered under positional flips",
			Size: 128,
			gen:  genSurvey,
		},
		{
			Name: "corpus",
			Desc: "corpus mutations: classification accuracy under varied overlap/noise/keyword knobs",
			Size: 128,
			gen:  genCorpus,
		},
	}
}

// drawWorkflow draws a random layered DAG of 3–8 steps: each step depends
// on one or two earlier steps, with mixed tier pins and core demands that
// every testbed node class can satisfy.
func drawWorkflow(r *rng.Rand) scenarios.BuildWorkflow {
	n := 3 + r.Intn(6)
	steps := make([]scenarios.StepSpec, n)
	tiers := []string{"", "", "hpc", "cloud"}
	for i := range steps {
		sp := scenarios.StepSpec{
			ID:    fmt.Sprintf("s%02d", i),
			GFlop: 50 + float64(r.Intn(20))*25,
			Cores: 1 << r.Intn(4),
			Tier:  tiers[r.Intn(len(tiers))],
		}
		if i > 0 {
			sp.After = []string{fmt.Sprintf("s%02d", r.Intn(i))}
			if i > 1 && r.Float64() < 0.3 {
				dep := fmt.Sprintf("s%02d", r.Intn(i))
				if dep != sp.After[0] {
					sp.After = append(sp.After, dep)
				}
			}
		}
		sp.OutBytes = float64(r.Intn(100)) * 1e6
		steps[i] = sp
	}
	return scenarios.BuildWorkflow{Name: "gen", Steps: steps}
}

func genFaults(r *rng.Rand, stream string) []scenarios.Op {
	wf := drawWorkflow(r)
	prob := 0.05 + 0.5*r.Float64()
	retries := 1 + r.Intn(4)
	policy := []string{"heft", "data-local"}[r.Intn(2)]
	return []scenarios.Op{
		wf,
		scenarios.InjectFaults{Prob: prob, MaxRetries: retries, Stream: stream},
		scenarios.Testbed{Preset: "default"},
		scenarios.Place{Policy: policy},
		scenarios.Simulate{},
	}
}

func genPlacement(r *rng.Rand, stream string) []scenarios.Op {
	wf := drawWorkflow(r)
	policies := []string{"heft", "data-local", "cost-aware", "round-robin", "energy-aware", "energy-deadline"}
	place := scenarios.Place{Policy: policies[r.Intn(len(policies))]}
	if place.Policy == "energy-deadline" {
		place.Slack = 1 + 2*r.Float64()
	}
	return []scenarios.Op{
		wf,
		scenarios.Testbed{Preset: "default"},
		place,
		scenarios.Simulate{},
	}
}

func genEnergy(r *rng.Rand, stream string) []scenarios.Op {
	return []scenarios.Op{
		scenarios.Testbed{Preset: "default"},
		scenarios.EnergyFleet{
			VMs:       2 + r.Intn(10),
			CoresMin:  1,
			CoresMax:  1 + r.Intn(4),
			DurationS: 600 * float64(1+r.Intn(6)),
			Placer:    []string{"consolidating", "spreading"}[r.Intn(2)],
			Stream:    stream,
		},
	}
}

func genSurvey(r *rng.Rand, stream string) []scenarios.Op {
	return []scenarios.Op{
		scenarios.PerturbSurvey{FlipProb: 0.4 * r.Float64(), Stream: stream},
	}
}

func genCorpus(r *rng.Rand, stream string) []scenarios.Op {
	return []scenarios.Op{
		scenarios.MutateCorpus{
			N:        64 + 32*r.Intn(9),
			Overlap:  0.4 * r.Float64(),
			Noise:    r.Intn(25),
			Keywords: 1 + r.Intn(5),
			Stream:   stream,
		},
	}
}
