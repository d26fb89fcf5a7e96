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
	"encoding/json"
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
// shard is first looked up under key(s, lo, hi): a hit decodes the stored
// JSON aggregate and skips body; a miss or a dangling link runs body and
// stores its JSON aggregate under that key. The shards run on the env
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
		agg T
		hit bool
		err error
	}
	shards := make([]shard, NumShards(n, size))
	opts := append(append([]par.Option{}, env.ParOpts()...), par.Grain(1))
	par.For(len(shards), func(s int) {
		sh := &shards[s]
		lo, hi := s*size, min((s+1)*size, n)
		var k cas.Key
		if env.Store != nil {
			k = key(s, lo, hi)
			if sh.hit, sh.err = lookupShard(env.Store, ns, k, &sh.agg); sh.hit || sh.err != nil {
				return
			}
		}
		if sh.agg, sh.err = body(s, lo, hi); sh.err == nil && env.Store != nil {
			sh.err = storeShard(env.Store, ns, k, &sh.agg)
		}
	}, opts...)

	var acc T
	var stats ShardStats
	for s := range shards {
		sh := &shards[s]
		if sh.err != nil {
			return nil, ShardStats{}, sh.err
		}
		if sh.hit {
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

// lookupShard decodes the aggregate linked under key into dst. An absent
// link is a miss, and so is a dangling one (evicted artifact): the shard
// executes again.
func lookupShard[T any](store cas.Store, ns string, key cas.Key, dst *T) (bool, error) {
	target, ok, err := store.Resolve(key)
	if err != nil || !ok {
		return false, err
	}
	data, ok, err := store.Get(target)
	if err != nil || !ok {
		return false, err
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return false, fmt.Errorf("%s: decoding cached shard: %w", ns, err)
	}
	return true, nil
}

// storeShard memoizes one executed shard aggregate under key.
func storeShard[T any](store cas.Store, ns string, key cas.Key, agg *T) error {
	data, err := json.Marshal(agg)
	if err != nil {
		return fmt.Errorf("%s: encoding shard: %w", ns, err)
	}
	artifact, err := store.Put(data)
	if err != nil {
		return err
	}
	return store.Link(key, artifact)
}
