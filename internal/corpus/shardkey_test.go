package corpus

import (
	"testing"

	"repro/internal/cas"
)

// Shard memo keys are part of the cache format: changing one orphans every
// stored shard aggregate. These digests pin the keys a two-shard corpus at
// seed 1 stores its shards under.
func TestShardKeysPinned(t *testing.T) {
	store := cas.NewMemStore()
	if _, _, err := ClassifyAll(testEnv(4, store), NewGenerator(DefaultSpec(ShardSize+10), 1)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []cas.Key{
		"c994353b36fc458426460a10aeaaa186ac07eedc828b8fe2d64e9983159a5ac1", // shard 0, [0, 4096)
		"cceb62d2cdf7307ac2113e66f5a21a2164a27ad37f923efa3e940fd5efd1e1c4", // shard 1, [4096, 4106)
	} {
		if _, ok, err := store.Resolve(key); err != nil || !ok {
			t.Errorf("no shard stored under pinned key %s (err %v)", key.Short(), err)
		}
	}
}
