package scengen

import (
	"context"
	"testing"

	"repro/internal/cas"
)

// The generated-family hot paths gated by make bench-gate (BENCH_scen.json):
// pure config generation, the cold sharded sweeps of the faults and survey
// families (every shard body executes), and the warm sweep (every shard
// served from the store, zero bodies). Allocation counts on all four are
// deterministic, so the 10% alloc gate effectively pins them exactly.

// BenchmarkScenGenConfigs measures drawing every configuration of the
// faults family — the pure (seed, i) → ops generation path, no execution.
func BenchmarkScenGenConfigs(b *testing.B) {
	f := family(b, "faults")
	env := testEnv(1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < f.Size; j++ {
			if len(f.Config(env, j).Ops) == 0 {
				b.Fatal("empty composition")
			}
		}
	}
}

// BenchmarkScenFamilyCold measures one full uncached faults-family sweep:
// generate, run, and invariant-check all configurations, no store.
func BenchmarkScenFamilyCold(b *testing.B) { benchCold(b, "faults") }

// BenchmarkScenSurveyCold is the same cold sweep over the survey family:
// 128 perturbed re-runs of the recorded Table 2 survey.
func BenchmarkScenSurveyCold(b *testing.B) { benchCold(b, "survey") }

func benchCold(b *testing.B, name string) {
	f := family(b, name)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _, err := RunFamily(ctx, testEnv(0, nil), f)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Configs != f.Size {
			b.Fatalf("ran %d configs, want %d", agg.Configs, f.Size)
		}
	}
}

// BenchmarkScenFamilyWarm measures the same sweep over a primed store:
// every shard is a cas hit and zero configuration bodies execute.
func BenchmarkScenFamilyWarm(b *testing.B) {
	f := family(b, "faults")
	ctx := context.Background()
	store := cas.NewMemStore()
	if _, _, err := RunFamily(ctx, testEnv(0, store), f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := RunFamily(ctx, testEnv(0, store), f)
		if err != nil {
			b.Fatal(err)
		}
		if stats.ShardsExecuted != 0 {
			b.Fatalf("warm sweep executed %d shards", stats.ShardsExecuted)
		}
	}
}
