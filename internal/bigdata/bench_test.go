package bigdata

import (
	"context"
	"fmt"
	prng "repro/internal/rng"
	"testing"
)

// BenchmarkPipeline measures the ParSoDA map→group pipeline.
func BenchmarkPipeline(b *testing.B) {
	xs := make([]int, 50000)
	for i := range xs {
		xs[i] = i
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p := NewPipeline[int, int](workers).
				Map(func(x int) (int, error) { return x * x, nil }).
				GroupBy(func(m int) string { return fmt.Sprint(m % 16) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(context.Background(), xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockSizeEstimate measures BLEST-ML training + inference.
func BenchmarkBlockSizeEstimate(b *testing.B) {
	rng := prng.New(4)
	train := genTraining(rng, 400)
	var m BlockSizeModel
	if err := m.Fit(train, 1e-6); err != nil {
		b.Fatal(err)
	}
	job := genTraining(rng, 1)[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Estimate(job); err != nil {
			b.Fatal(err)
		}
	}
}
