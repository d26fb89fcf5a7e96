package stream

import (
	"context"
	"fmt"
	"testing"
)

func benchWork(x int) int {
	acc := x
	for i := 0; i < 500; i++ {
		acc = acc*31 + i
	}
	return acc
}

// benchInts is the 1000-item input of the farm benchmarks.
func benchInts() []int {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// BenchmarkFarm measures Map throughput at several parallelism degrees.
func BenchmarkFarm(b *testing.B) {
	xs := benchInts()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := FromSlice(context.Background(), xs)
				if out, err := Map(src, benchWork, Workers(workers)).Collect(); err != nil || len(out) != 1000 {
					b.Fatalf("n=%d err=%v", len(out), err)
				}
			}
		})
	}
}

// BenchmarkFarmOrdered quantifies the reordering overhead.
func BenchmarkFarmOrdered(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		opts := []Option{Workers(4)}
		if ordered {
			name = "ordered"
			opts = append(opts, Ordered())
		}
		b.Run(name, func(b *testing.B) {
			xs := benchInts()
			for i := 0; i < b.N; i++ {
				src := FromSlice(context.Background(), xs)
				if out, err := Map(src, benchWork, opts...).Collect(); err != nil || len(out) != 1000 {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowedPipeline measures the keyed tumbling-window pipeline.
func BenchmarkWindowedPipeline(b *testing.B) {
	readings := make([]float64, 10000)
	for i := range readings {
		readings[i] = float64(i % 97)
	}
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		src := FromSlice(ctx, readings)
		keyed := KeyBy(ctx, src, func(v float64) string {
			if v < 50 {
				return "low"
			}
			return "high"
		})
		wins := TumblingCount(keyed, 100)
		out, err := AggregateWindows(wins, func(w Window[float64]) float64 {
			s := 0.0
			for _, v := range w.Items {
				s += v
			}
			return s / float64(len(w.Items))
		}, Workers(4)).Collect()
		if err != nil || len(out) == 0 {
			b.Fatalf("n=%d err=%v", len(out), err)
		}
	}
}
