package report

import (
	"context"

	"repro/internal/core"
	"repro/internal/exp"
)

// Experiment adapts the full-report build to the unified experiment
// contract: the body is FullEnv on the Env, so with a store the sections are
// memoized on the Spec fingerprint beneath the registry's whole-experiment
// memo, and either way each rendered section emits a "report.section" span
// and the report bytes are identical.
func Experiment(s *core.Study) (exp.Experiment, error) {
	spec, err := Spec(s)
	if err != nil {
		return exp.Experiment{}, err
	}
	return exp.Experiment{
		Spec: spec,
		Desc: "full study report: every table and figure of the paper plus the synthesized discussion",
		Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			// Section hits and renders depend on the cache state, so they
			// reach telemetry only (report.shards.hit / report.shards.exec
			// on env.Metrics), never the Result.
			full, _, err := FullEnv(s, env)
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
