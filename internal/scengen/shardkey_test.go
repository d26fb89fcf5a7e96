package scengen

import (
	"context"
	"testing"

	"repro/internal/cas"
)

// Shard memo keys are part of the cache format: changing one orphans every
// stored shard aggregate. These digests pin the keys the corpus family's
// two shards are stored under at env seed 1.
func TestShardKeysPinned(t *testing.T) {
	f := family(t, "corpus")
	store := cas.NewMemStore()
	if _, _, err := RunFamily(context.Background(), testEnv(4, store), f); err != nil {
		t.Fatal(err)
	}
	for _, key := range []cas.Key{
		"0fa91ef27d6ac72452feada75759affbc30da0b67620c499e1a5119f95b36d14", // shard 0, [0, 64)
		"a85ed003ad399a0f998a87b225930af11c98441b51bcaaf8701470a193d14ab1", // shard 1, [64, 128)
	} {
		if _, ok, err := store.Resolve(key); err != nil || !ok {
			t.Errorf("no shard stored under pinned key %s (err %v)", key.Short(), err)
		}
	}
}
