package scengen

// The generated families as registered experiments: one sweep experiment
// per family, named "scengen/<family>", parameterized by the family name
// and its fixed size. Registration makes every generated configuration
// cas-memoized (per shard), sealed into runpacks, and served by smsd
// through the same plumbing as every other workload.

import (
	"context"
	"fmt"

	"repro/internal/exp"
)

// Experiments returns one sweep experiment per generated family.
func Experiments() []exp.Experiment {
	fams := Families()
	out := make([]exp.Experiment, 0, len(fams))
	for _, f := range fams {
		f := f
		out = append(out, exp.Experiment{
			Spec: exp.Spec{
				Name: "scengen/" + f.Name,
				Params: map[string]any{
					"family": f.Name,
					"size":   f.Size,
					"shard":  ShardSize,
				},
			},
			Desc: fmt.Sprintf("%s (%d generated configurations)", f.Desc, f.Size),
			Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
				sp := env.StartSpan("scengen", f.Name)
				// ShardStats are cache-state-dependent and go to telemetry
				// only: the Result must be byte-identical cold and warm.
				agg, _, err := RunFamily(ctx, env, f)
				sp.End(err)
				if err != nil {
					return nil, err
				}
				return &exp.Result{
					Artifacts: map[string]string{"summary": agg.Render()},
					Metrics: map[string]float64{
						"configs": float64(agg.Configs),
						"ops":     float64(agg.Ops),
						"shards":  float64(NumShards(f.Size)),
					},
				}, nil
			},
		})
	}
	return out
}
