package exp

// The sharded-memo executor behind the indexed workloads — corpus
// classification (internal/corpus), generated scenario families
// (internal/scengen) and the full report (internal/report, one size-1
// shard per section). All three cut an index range into fixed-size
// shards, memoize each shard's aggregate in the content-addressed store
// and fold the aggregates in shard order. Shard boundaries depend only on entry
// indices and the shard size, never on the range length or the worker
// count, so a full shard's memo key survives growth of the range and the
// fold is bit-identical at any par.Workers(n).

import (
	"errors"
	"fmt"

	"repro/internal/cas"
	"repro/internal/par"
)

// NumShards reports how many size-entry shards n entries split into.
func NumShards(n, size int) int {
	if n <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// ShardStats reports how a MapShards run was satisfied. It never affects
// the aggregate: only telemetry and tests read it.
type ShardStats struct {
	// ShardsExecuted counts shard bodies that ran.
	ShardsExecuted int
	// ShardsCached counts shards served from the content-addressed store.
	ShardsCached int
}

// MapShards folds the size-entry shards of [0, n) into one aggregate.
// Shard s covers [s*size, min((s+1)*size, n)). With env.Store set, each
// shard is one cas.Memoize of body under key(s, lo, hi), so a hit skips
// body and two runs sharing a key compute it once. The shards run on the env
// worker pool at grain 1, each into its own slot of one result slice, and
// merge then folds the slots into the zero T in shard index order — so the
// aggregate is bit-identical for any worker count and any cache state even
// when merge is not associative. The lowest-indexed shard error is
// returned. On success the hit/execute split is returned and accumulated
// on env.Metrics as <ns>.shards.exec and <ns>.shards.hit.
func MapShards[T any](env *Env, ns string, n, size int,
	key func(s, lo, hi int) cas.Key,
	body func(s, lo, hi int) (T, error),
	merge func(acc, shard *T)) (*T, ShardStats, error) {
	type shard struct {
		agg  T
		memo cas.Memoized
		err  error
	}
	shards := make([]shard, NumShards(n, size))
	opts := append(append([]par.Option{}, env.ParOpts()...), par.Grain(1))
	par.For(len(shards), func(s int) {
		sh := &shards[s]
		lo, hi := s*size, min((s+1)*size, n)
		if env.Store == nil {
			sh.agg, sh.err = body(s, lo, hi)
			return
		}
		sh.memo, sh.err = cas.Memoize(env.Store, key(s, lo, hi), &sh.agg, func() (T, error) { return body(s, lo, hi) })
	}, opts...)

	var acc T
	var stats ShardStats
	for s := range shards {
		sh := &shards[s]
		if sh.err != nil {
			if ce := (*cas.CodecError)(nil); errors.As(sh.err, &ce) {
				return nil, ShardStats{}, fmt.Errorf("%s: %s shard: %w", ns, ce.Op, ce.Err)
			}
			return nil, ShardStats{}, sh.err
		}
		if sh.memo.Hit {
			stats.ShardsCached++
		} else {
			stats.ShardsExecuted++
		}
		merge(&acc, &sh.agg)
	}
	if env.Metrics != nil {
		env.Metrics.Inc(ns+".shards.exec", int64(stats.ShardsExecuted))
		env.Metrics.Inc(ns+".shards.hit", int64(stats.ShardsCached))
	}
	return &acc, stats, nil
}
