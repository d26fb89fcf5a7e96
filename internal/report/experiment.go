package report

import (
	"context"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/exp"
)

// Experiment adapts the full-report build to the unified experiment
// contract. With a store on the Env the build goes through FullCachedEnv —
// section-level memoization keyed on the Spec fingerprint, on top of the
// registry's whole-experiment memo — otherwise it renders via FullEnv on
// the Env worker pool. Either path emits per-section "report.section"
// spans and produces the identical report bytes.
func Experiment(s *core.Study) (exp.Experiment, error) {
	spec, err := Spec(s)
	if err != nil {
		return exp.Experiment{}, err
	}
	return exp.Experiment{
		Spec: spec,
		Desc: "full study report: every table and figure of the paper plus the synthesized discussion",
		Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			var (
				full string
				err  error
			)
			if env.Store != nil {
				// Section hits and misses depend on the cache state, so
				// they reach telemetry only (cas.hits / cas.misses on
				// env.Metrics), never the Result.
				m := &cas.Memo{Store: env.Store, Clock: env.Clk(), Metrics: env.Metrics}
				full, _, err = FullCachedEnv(s, m, env)
			} else {
				full, err = FullEnv(s, env)
			}
			if err != nil {
				return nil, err
			}
			return &exp.Result{
				Artifacts: map[string]string{"report.txt": full},
				Metrics:   map[string]float64{"bytes": float64(len(full))},
			}, nil
		},
	}, nil
}
