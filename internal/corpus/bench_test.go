package corpus

import (
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
)

// BenchmarkCorpusGen measures the word draw of one entry, the generation
// step of the shard body and the per-entry cost floor of the pipeline
// (zero allocations).
func BenchmarkCorpusGen(b *testing.B) {
	g := NewGenerator(DefaultSpec(1<<20), 1)
	var sink core.WordID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := g.draw(i & (1<<20 - 1))
		for d.more() {
			sink ^= d.next()
		}
	}
	_ = sink
}

// BenchmarkCorpusShard measures one shard body: draw and classify
// ShardSize entries a word at a time on pooled scratch.
func BenchmarkCorpusShard(b *testing.B) {
	g := NewGenerator(DefaultSpec(ShardSize), 1)
	sc := &core.ClassifyScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := classifyShard(g, 0, ShardSize, sc)
		if agg.Total != ShardSize {
			b.Fatal("short shard")
		}
	}
}

// BenchmarkCorpusClassifySharded runs the full cold pipeline (no store) over
// a 64k-entry corpus at the environment's default worker count.
func BenchmarkCorpusClassifySharded(b *testing.B) {
	g := NewGenerator(DefaultSpec(16*ShardSize), 1)
	env := testEnv(0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _, err := ClassifyAll(env, g)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Total != 16*ShardSize {
			b.Fatal("short run")
		}
	}
}

// BenchmarkCorpusClassifyWarm runs the same pipeline against a fully warm
// store — the zero-bodies path the memoization exists for.
func BenchmarkCorpusClassifyWarm(b *testing.B) {
	g := NewGenerator(DefaultSpec(16*ShardSize), 1)
	store := cas.NewMemStore()
	if _, _, err := ClassifyAll(testEnv(0, store), g); err != nil {
		b.Fatal(err)
	}
	env := testEnv(0, store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := ClassifyAll(env, g)
		if err != nil {
			b.Fatal(err)
		}
		if stats.ShardsExecuted != 0 {
			b.Fatal("warm run executed shard bodies")
		}
	}
}
