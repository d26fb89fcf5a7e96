package scengen

// The sharded family executor: a family's configurations are cut into
// fixed-size shards for exp.MapShards, the same executor as
// internal/corpus. Each shard is memoized in the content-addressed store
// under a key derived from (env seed, family, entry range) — never the
// family size — so warm re-runs execute zero configuration bodies and
// growing a family only executes the new tail.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/exp"
	"repro/internal/scenarios"
)

// ShardSize is the fixed number of configurations per memo shard. Like the
// corpus shard geometry it depends only on configuration indices, never on
// worker count or family size.
const ShardSize = 64

// shardVersion is folded into every shard memo key; bump it when the
// aggregate schema, the op vocabulary, or the generation recipes change.
const shardVersion = "scengen/shard/v1"

// NumShards reports how many shards a family of n configurations splits into.
func NumShards(n int) int { return exp.NumShards(n, ShardSize) }

// Aggregate is the summary of a configuration range: config/op counts and
// per-observation sums with counts. Merging is keywise addition folded in
// shard order, so the merged value is bit-identical at any worker count.
type Aggregate struct {
	// Configs counts executed configurations.
	Configs int `json:"configs"`
	// Ops counts executed ops across those configurations.
	Ops int64 `json:"ops"`
	// ObsSum sums each named observation over the range.
	ObsSum map[string]float64 `json:"obs_sum,omitempty"`
	// ObsN counts how many configurations recorded each observation.
	ObsN map[string]int64 `json:"obs_n,omitempty"`
}

// Merge folds b into a. The zero Aggregate is the identity.
func (a *Aggregate) Merge(b *Aggregate) {
	if b.Configs == 0 {
		return
	}
	a.Configs += b.Configs
	a.Ops += b.Ops
	for k, v := range b.ObsSum {
		if a.ObsSum == nil {
			a.ObsSum = map[string]float64{}
		}
		a.ObsSum[k] += v
	}
	for k, n := range b.ObsN {
		if a.ObsN == nil {
			a.ObsN = map[string]int64{}
		}
		a.ObsN[k] += n
	}
}

// Render renders the aggregate as a deterministic observation table:
// sorted keys, counts, sums, means.
func (a *Aggregate) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated configurations: %d (%d ops)\n\n", a.Configs, a.Ops)
	fmt.Fprintf(&b, "%-26s %8s %16s %14s\n", "observation", "configs", "sum", "mean")
	keys := make([]string, 0, len(a.ObsSum))
	for k := range a.ObsSum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := a.ObsN[k]
		mean := 0.0
		if n > 0 {
			mean = a.ObsSum[k] / float64(n)
		}
		fmt.Fprintf(&b, "%-26s %8d %16.4f %14.4f\n", k, n, a.ObsSum[k], mean)
	}
	return b.String()
}

// CheckInvariants asserts the conservation invariants every generated
// configuration must satisfy, stated over the final state's observations:
//
//   - fault accounting: attempts − failures = steps, inflated work ≥ base work;
//   - energy conservation: total power = idle + dynamic (exactly — both
//     sides are the same sum), simulated energy = dynamic + idle;
//   - bounded fractions: classification accuracy and survey agreement in [0,1].
//
// Vote conservation (checkmarks = per-tool sum = per-direction total) and
// corpus accounting (classified = N) are asserted inside the ops
// themselves, so any violation fails the configuration run directly.
func CheckInvariants(st *scenarios.State) error {
	if st.HasObs("faults.attempts") {
		steps := st.Obs("workflow.steps")
		if st.Obs("faults.attempts")-st.Obs("faults.failures") != steps {
			return fmt.Errorf("fault accounting violated: attempts %v − failures %v ≠ steps %v",
				st.Obs("faults.attempts"), st.Obs("faults.failures"), steps)
		}
		if st.Obs("faults.work_gflop") < st.Obs("workflow.base_gflop") {
			return fmt.Errorf("fault inflation lost work: %v < base %v",
				st.Obs("faults.work_gflop"), st.Obs("workflow.base_gflop"))
		}
	}
	if st.HasObs("energy.total_w") {
		if st.Obs("energy.total_w") != st.Obs("energy.idle_w")+st.Obs("energy.dynamic_w") {
			return fmt.Errorf("power conservation violated: total %v ≠ idle %v + dynamic %v",
				st.Obs("energy.total_w"), st.Obs("energy.idle_w"), st.Obs("energy.dynamic_w"))
		}
	}
	if st.HasObs("sim.energy_j") {
		if st.Obs("sim.energy_j") != st.Obs("sim.dynamic_j")+st.Obs("sim.idle_j") {
			return fmt.Errorf("energy conservation violated: total %v ≠ dynamic %v + idle %v",
				st.Obs("sim.energy_j"), st.Obs("sim.dynamic_j"), st.Obs("sim.idle_j"))
		}
	}
	for _, frac := range []string{"corpus.accuracy", "survey.agreement"} {
		if st.HasObs(frac) {
			if v := st.Obs(frac); v < 0 || v > 1 {
				return fmt.Errorf("%s = %v outside [0,1]", frac, v)
			}
		}
	}
	return nil
}

// RunConfig executes one generated configuration and checks its
// invariants, returning the final state.
func RunConfig(ctx context.Context, env *exp.Env, cfg Config) (*scenarios.State, error) {
	st, err := scenarios.RunOps(ctx, env, cfg.Ops)
	if err != nil {
		return nil, fmt.Errorf("scengen: %s[%d]: %w", cfg.Family, cfg.Index, err)
	}
	if err := CheckInvariants(st); err != nil {
		return nil, fmt.Errorf("scengen: %s[%d]: %w", cfg.Family, cfg.Index, err)
	}
	return st, nil
}

// shardKey derives shard s's memo key. The fingerprint covers everything
// that determines the shard's aggregate — the env seed (root of every
// generation and op stream), the family, and the shard's configuration
// range — and nothing that doesn't (family size, worker count).
func shardKey(env *exp.Env, f Family, s, lo, hi int) cas.Key {
	fp := fmt.Sprintf("%s|family=%s|seed=%d|range=%d:%d", shardVersion, f.Name, env.Seed, lo, hi)
	return cas.StepKey("scengen", fmt.Sprintf("%s-shard-%d", f.Name, s), fp, nil)
}

// accumulate folds one configuration's final state into the aggregate.
func (a *Aggregate) accumulate(cfg Config, st *scenarios.State) {
	a.Configs++
	a.Ops += int64(len(cfg.Ops))
	for _, k := range st.ObsKeys() {
		if a.ObsSum == nil {
			a.ObsSum = map[string]float64{}
			a.ObsN = map[string]int64{}
		}
		a.ObsSum[k] += st.Obs(k)
		a.ObsN[k]++
	}
}

// RunFamily executes (or resolves from cache) every configuration of the
// family under env through exp.MapShards: per-shard memoization on the env
// worker pool, shard aggregates folded in shard order. The Aggregate is
// bit-identical for any worker count and any cache state; the ShardStats
// hit/execute split is also accumulated on env.Metrics as
// scengen.shards.hit / scengen.shards.exec, beside scengen.configs.exec.
func RunFamily(ctx context.Context, env *exp.Env, f Family) (*Aggregate, exp.ShardStats, error) {
	var configs atomic.Int64
	agg, stats, err := exp.MapShards(env, "scengen", f.Size, ShardSize,
		func(s, lo, hi int) cas.Key { return shardKey(env, f, s, lo, hi) },
		func(_, lo, hi int) (Aggregate, error) {
			var agg Aggregate
			for i := lo; i < hi; i++ {
				cfg := f.Config(env, i)
				st, err := RunConfig(ctx, env, cfg)
				if err != nil {
					return agg, err
				}
				agg.accumulate(cfg, st)
			}
			configs.Add(int64(hi - lo))
			return agg, nil
		}, (*Aggregate).Merge)
	if err == nil && env.Metrics != nil {
		env.Metrics.Inc("scengen.configs.exec", configs.Load())
	}
	return agg, stats, err
}
