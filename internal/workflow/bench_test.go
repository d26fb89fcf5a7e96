package workflow

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func benchDAG(n int) *Workflow {
	rng := rand.New(rand.NewSource(1))
	w := New("bench")
	for i := 0; i < n; i++ {
		var after []string
		for j := 0; j < i && len(after) < 3; j++ {
			if rng.Float64() < 0.1 {
				after = append(after, fmt.Sprintf("s%04d", j))
			}
		}
		w.MustAdd(Step{ID: fmt.Sprintf("s%04d", i), After: after, WorkGFlop: rng.Float64() * 10})
	}
	return w
}

// BenchmarkTopoOrder measures topological sorting of a 1000-step DAG.
func BenchmarkTopoOrder(b *testing.B) {
	w := benchDAG(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures the executor on a wide DAG.
func BenchmarkRun(b *testing.B) {
	w := New("wide")
	bodies := map[string]StepFunc{}
	var ids []string
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("p%02d", i)
		w.MustAdd(Step{ID: id})
		bodies[id] = func(ctx context.Context, _ map[string]any) (any, error) { return 1, nil }
		ids = append(ids, id)
	}
	w.MustAdd(Step{ID: "join", After: ids})
	bodies["join"] = func(ctx context.Context, deps map[string]any) (any, error) { return len(deps), nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), w, bodies); err != nil {
			b.Fatal(err)
		}
	}
}
