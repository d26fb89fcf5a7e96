package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// CLIOptions carries smsreport's registry-driven flag set: -list, -run
// <name|all>, -json, plus the seed, worker bound and cache directory.
type CLIOptions struct {
	List    bool   // -list: print every experiment name and description
	Run     string // -run: execute one experiment ("all" = whole registry)
	JSON    bool   // -json: emit the Result as JSON instead of artifacts
	Seed    int64  // root Env seed
	Workers int    // par worker pool bound (0 = default pool)
	Cache   string // cas.DiskStore directory ("" = no memoization)
}

// Env builds the experiment environment the CLI contract promises: a
// simulated clock seeded from the run seed (so provenance and spans are
// pure functions of the flags), telemetry, the worker bound, and the
// optional disk store.
func (o CLIOptions) Env() (*exp.Env, error) {
	sim := clock.NewSim(o.Seed)
	env := &exp.Env{
		Seed:    o.Seed,
		Clock:   sim,
		Metrics: telemetry.NewWithClock(sim),
	}
	if o.Workers > 0 {
		env.Par = []par.Option{par.Workers(o.Workers)}
	}
	if o.Cache != "" {
		store, err := cas.NewDiskStore(o.Cache)
		if err != nil {
			return nil, err
		}
		env.Store = store
	}
	return env, nil
}

// Active reports whether the registry-driven flags were used at all; when
// false smsreport falls through to its paper-artifact modes.
func (o CLIOptions) Active() bool { return o.List || o.Run != "" }

// RunCLI executes the -list/-run/-json contract against reg and writes the
// outcome to out. Callers should only invoke it when Active().
func RunCLI(reg *exp.Registry, o CLIOptions, out io.Writer) error {
	if o.List {
		return list(reg, out)
	}
	env, err := o.Env()
	if err != nil {
		return err
	}
	if o.Run == "all" {
		return runAll(reg, env, o, out)
	}
	res, err := reg.Run(context.Background(), env, o.Run)
	if err != nil {
		return err
	}
	return emit(res, o, out)
}

// PackDirName maps an experiment name to its runpack subdirectory: "/" is
// the registry's namespace separator but a path separator on disk.
func PackDirName(experiment string) string {
	return strings.ReplaceAll(experiment, "/", "__")
}

// list prints every registered experiment with its description, aligned.
func list(reg *exp.Registry, out io.Writer) error {
	exps := reg.Experiments()
	width := 0
	for _, e := range exps {
		if len(e.Spec.Name) > width {
			width = len(e.Spec.Name)
		}
	}
	for _, e := range exps {
		if _, err := fmt.Fprintf(out, "%-*s  %s\n", width, e.Spec.Name, e.Desc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(out, "\n%d experiments (-run <name> to execute, -run all for the full sweep)\n", len(exps))
	return err
}

// runAll sweeps the whole registry and prints one deterministic summary
// line per experiment (or the full JSON results with -json).
func runAll(reg *exp.Registry, env *exp.Env, o CLIOptions, out io.Writer) error {
	results, err := reg.RunAll(context.Background(), env)
	if err != nil {
		return err
	}
	if o.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for _, r := range results {
		status := "ran"
		if r.Provenance.Cached {
			status = "cached"
		}
		if _, err := fmt.Fprintf(out, "%-34s %-7s seed=%d\n", r.Provenance.Experiment, status, r.Provenance.Seed); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(out, "\n%d experiments ok (hits=%d misses=%d)\n",
		len(results), env.Metrics.Counter("exp.hits"), env.Metrics.Counter("exp.misses"))
	return err
}

// emit writes a single experiment's Result: with -json the whole Result,
// otherwise the artifacts in sorted name order (a lone artifact prints
// bare, so `smsreport -run report.full` emits exactly the report bytes).
func emit(res *exp.Result, o CLIOptions, out io.Writer) error {
	if o.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	names := make([]string, 0, len(res.Artifacts))
	for n := range res.Artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(names) > 1 {
			if _, err := fmt.Fprintf(out, "# %s\n", n); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(out, res.Artifacts[n]); err != nil {
			return err
		}
	}
	return nil
}
