package exp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// concat is an order-sensitive aggregate: folding its shards in any order
// other than shard index order changes the bytes.
type concat struct {
	S string `json:"s"`
}

func (a *concat) merge(b *concat) { a.S += b.S }

const (
	concatN    = 100
	concatSize = 7 // 15 shards, the last one partial
)

func concatKey(s, lo, hi int) cas.Key {
	return cas.StepKey("test", fmt.Sprintf("shard-%d", s), fmt.Sprintf("range=%d:%d", lo, hi), nil)
}

// shardRun drives MapShards over the concat workload and counts executed
// bodies. fail, when non-nil, lets a shard body return an error.
type shardRun struct {
	bodies atomic.Int64
	fail   func(s int) error
}

func (r *shardRun) run(workers int, store cas.Store) (*concat, ShardStats, *Env, error) {
	sim := clock.NewSim(1)
	env := &Env{Clock: sim, Metrics: telemetry.NewWithClock(sim), Store: store,
		Par: []par.Option{par.Workers(workers)}}
	agg, stats, err := MapShards(env, "test", concatN, concatSize, concatKey,
		func(s, lo, hi int) (concat, error) {
			r.bodies.Add(1)
			if r.fail != nil {
				if err := r.fail(s); err != nil {
					return concat{}, err
				}
			}
			var b strings.Builder
			for i := lo; i < hi; i++ {
				fmt.Fprintf(&b, "%d,", i)
			}
			return concat{S: b.String()}, nil
		}, (*concat).merge)
	return agg, stats, env, err
}

func wantConcat() string {
	var b strings.Builder
	for i := 0; i < concatN; i++ {
		fmt.Fprintf(&b, "%d,", i)
	}
	return b.String()
}

// The fold is in shard index order at every worker count, cold and warm,
// and a warm run executes zero bodies.
func TestMapShardsOrderColdWarm(t *testing.T) {
	want := wantConcat()
	nShards := NumShards(concatN, concatSize)
	for _, workers := range []int{1, 4, 8} {
		store := cas.NewMemStore()
		var r shardRun
		cold, stats, env, err := r.run(workers, store)
		if err != nil {
			t.Fatal(err)
		}
		if cold.S != want {
			t.Fatalf("workers=%d cold fold out of order:\n%s", workers, cold.S)
		}
		if stats != (ShardStats{ShardsExecuted: nShards}) || r.bodies.Load() != int64(nShards) {
			t.Fatalf("workers=%d cold stats = %+v, bodies = %d", workers, stats, r.bodies.Load())
		}
		if env.Metrics.Counter("test.shards.exec") != int64(nShards) || env.Metrics.Counter("test.shards.hit") != 0 {
			t.Fatalf("workers=%d cold counters exec=%d hit=%d", workers,
				env.Metrics.Counter("test.shards.exec"), env.Metrics.Counter("test.shards.hit"))
		}

		var w shardRun
		warm, stats, env, err := w.run(workers, store)
		if err != nil {
			t.Fatal(err)
		}
		if warm.S != want {
			t.Fatalf("workers=%d warm fold differs from cold", workers)
		}
		if w.bodies.Load() != 0 || stats != (ShardStats{ShardsCached: nShards}) {
			t.Fatalf("workers=%d warm run executed %d bodies, stats %+v", workers, w.bodies.Load(), stats)
		}
		if env.Metrics.Counter("test.shards.hit") != int64(nShards) || env.Metrics.Counter("test.shards.exec") != 0 {
			t.Fatalf("workers=%d warm counters exec=%d hit=%d", workers,
				env.Metrics.Counter("test.shards.exec"), env.Metrics.Counter("test.shards.hit"))
		}
	}
}

// A link whose artifact is gone is a miss: only that shard executes again,
// and the bytes are unchanged.
func TestMapShardsDanglingLink(t *testing.T) {
	store := cas.NewMemStore()
	var cold shardRun
	if _, _, _, err := cold.run(4, store); err != nil {
		t.Fatal(err)
	}
	if err := store.Link(concatKey(3, 21, 28), cas.KeyOf([]byte("evicted"))); err != nil {
		t.Fatal(err)
	}
	var r shardRun
	agg, stats, _, err := r.run(4, store)
	if err != nil {
		t.Fatal(err)
	}
	if agg.S != wantConcat() {
		t.Fatal("re-executed shard changed the fold")
	}
	if r.bodies.Load() != 1 || stats.ShardsExecuted != 1 || stats.ShardsCached != NumShards(concatN, concatSize)-1 {
		t.Fatalf("dangling link: %d bodies, stats %+v; want exactly shard 3 re-executed", r.bodies.Load(), stats)
	}
}

// A blob that is not the aggregate's JSON fails the run with an error.
func TestMapShardsCorruptBlob(t *testing.T) {
	store := cas.NewMemStore()
	blob, err := store.Put([]byte("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Link(concatKey(2, 14, 21), blob); err != nil {
		t.Fatal(err)
	}
	var r shardRun
	agg, _, env, err := r.run(4, store)
	if err == nil || !strings.Contains(err.Error(), "test: decoding cached shard") {
		t.Fatalf("corrupt shard blob: agg %v, err %v", agg, err)
	}
	if env.Metrics.Counter("test.shards.exec") != 0 {
		t.Fatal("a failed run reached telemetry")
	}
}

// With several failing shards the lowest-indexed error wins, at every
// worker count.
func TestMapShardsLowestError(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		r := shardRun{fail: func(s int) error {
			if s == 4 || s == 11 {
				return fmt.Errorf("shard %d failed", s)
			}
			return nil
		}}
		agg, _, _, err := r.run(workers, nil)
		if err == nil || err.Error() != "shard 4 failed" || agg != nil {
			t.Fatalf("workers=%d: agg %v, err %v; want shard 4's error", workers, agg, err)
		}
	}
}

// An empty range runs no body and returns the zero aggregate.
func TestMapShardsEmpty(t *testing.T) {
	env := &Env{Store: cas.NewMemStore()}
	agg, stats, err := MapShards(env, "test", 0, concatSize, concatKey,
		func(s, lo, hi int) (concat, error) {
			t.Fatalf("body ran for shard %d of an empty range", s)
			return concat{}, nil
		}, (*concat).merge)
	if err != nil || *agg != (concat{}) || stats != (ShardStats{}) {
		t.Fatalf("n=0: agg %+v, stats %+v, err %v", agg, stats, err)
	}
	if NumShards(0, concatSize) != 0 || NumShards(concatN, concatSize) != 15 || NumShards(concatSize, concatSize) != 1 {
		t.Fatal("NumShards geometry")
	}
}
