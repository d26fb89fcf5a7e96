package bigdata

import (
	"context"
	"errors"
	"fmt"
	"math"
	prng "repro/internal/rng"
	"strings"
	"testing"
)

type post struct {
	User string
	Text string
}

func samplePosts() []post {
	return []post{
		{"ada", "workflow orchestration rocks"},
		{"bob", "BUY NOW"},
		{"ada", "hpc and cloud"},
		{"cyn", "edge computing"},
		{"bob", "energy efficiency"},
	}
}

func TestPipelineMapGroup(t *testing.T) {
	p := NewPipeline[post, string](4).
		Map(func(x post) (string, error) { return x.User + ":" + x.Text, nil }).
		GroupBy(func(m string) string { return strings.SplitN(m, ":", 2)[0] })
	groups, err := p.Run(context.Background(), samplePosts())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %+v", groups)
	}
	// Sorted by key: ada, bob, cyn.
	if groups[0].Key != "ada" || len(groups[0].Items) != 2 {
		t.Errorf("ada group = %+v", groups[0])
	}
	if groups[1].Key != "bob" || len(groups[1].Items) != 2 {
		t.Errorf("bob group = %+v", groups[1])
	}
}

func TestPipelineRequiresPhases(t *testing.T) {
	p := NewPipeline[int, int](1)
	if _, err := p.Run(context.Background(), []int{1}); err == nil {
		t.Error("missing Map accepted")
	}
	p.Map(func(x int) (int, error) { return x, nil })
	if _, err := p.Run(context.Background(), []int{1}); err == nil {
		t.Error("missing GroupBy accepted")
	}
}

func TestPipelineMapErrorAborts(t *testing.T) {
	p := NewPipeline[int, int](4).
		Map(func(x int) (int, error) {
			if x == 13 {
				return 0, errors.New("unlucky")
			}
			return x, nil
		}).
		GroupBy(func(int) string { return "all" })
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	if _, err := p.Run(context.Background(), xs); err == nil {
		t.Error("mapping error swallowed")
	}
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	run := func(workers int) []Group[int] {
		p := NewPipeline[int, int](workers).
			Map(func(x int) (int, error) { return x * x, nil }).
			GroupBy(func(m int) string { return fmt.Sprint(m % 7) })
		g, err := p.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seq, par := run(1), run(8)
	if len(seq) != len(par) {
		t.Fatalf("group counts differ")
	}
	for i := range seq {
		if seq[i].Key != par[i].Key || len(seq[i].Items) != len(par[i].Items) {
			t.Fatalf("group %d differs", i)
		}
		for j := range seq[i].Items {
			if seq[i].Items[j] != par[i].Items[j] {
				t.Fatalf("order not preserved in group %s", seq[i].Key)
			}
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPipeline[int, int](2).
		Map(func(x int) (int, error) { return x, nil }).
		GroupBy(func(int) string { return "g" })
	if _, err := p.Run(ctx, []int{1, 2, 3}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestReduceGroups(t *testing.T) {
	groups := []Group[int]{
		{Key: "a", Items: []int{1, 2, 3}},
		{Key: "b", Items: []int{10}},
	}
	sums, err := ReduceGroups(context.Background(), groups, 4, func(g Group[int]) (int, error) {
		s := 0
		for _, v := range g.Items {
			s += v
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sums["a"] != 6 || sums["b"] != 10 {
		t.Errorf("sums = %v", sums)
	}
	// Error propagation.
	_, err = ReduceGroups(context.Background(), groups, 2, func(g Group[int]) (int, error) {
		return 0, errors.New("boom")
	})
	if err == nil {
		t.Error("reduce error swallowed")
	}
}

func genTraining(rng *prng.Rand, n int) []TrainingExample {
	out := make([]TrainingExample, n)
	for i := range out {
		f := JobFeatures{
			DatasetBytes: math.Exp(rng.Float64()*8) * 1e7, // 10 MB .. ~30 TB
			Workers:      1 + rng.Intn(256),
			MemPerWorker: math.Exp(rng.Float64()*4) * 1e8, // 100 MB .. ~5 GB
		}
		out[i] = TrainingExample{Features: f, BlockSize: OracleBlockSize(f)}
	}
	return out
}

func TestBlockSizeModelLearnsOracle(t *testing.T) {
	rng := prng.New(21)
	train := genTraining(rng, 400)
	var m BlockSizeModel
	if err := m.Fit(train, 1e-6); err != nil {
		t.Fatal(err)
	}
	// On held-out jobs, the prediction must be within 4× of the oracle
	// (log-scale model over a clamped piecewise oracle).
	within := 0
	total := 200
	for i := 0; i < total; i++ {
		f := genTraining(rng, 1)[0].Features
		want := OracleBlockSize(f)
		got, err := m.Estimate(f)
		if err != nil {
			t.Fatal(err)
		}
		ratio := got / want
		if ratio > 0.25 && ratio < 4 {
			within++
		}
	}
	if frac := float64(within) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of estimates within 4x of oracle", frac*100)
	}
}

// The BLEST-ML claim: estimated block sizes beat naive fixed defaults on
// simulated runtime for most jobs.
func TestEstimatedBlockSizeBeatsFixed(t *testing.T) {
	rng := prng.New(33)
	var m BlockSizeModel
	if err := m.Fit(genTraining(rng, 400), 1e-6); err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 100
	for i := 0; i < total; i++ {
		f := genTraining(rng, 1)[0].Features
		est, err := m.Estimate(f)
		if err != nil {
			t.Fatal(err)
		}
		tEst, err := PartitionedRuntime(f, est)
		if err != nil {
			t.Fatal(err)
		}
		tFixed, err := PartitionedRuntime(f, 4<<30) // naive 4 GiB blocks
		if err != nil {
			t.Fatal(err)
		}
		if tEst <= tFixed {
			wins++
		}
	}
	if frac := float64(wins) / float64(total); frac < 0.7 {
		t.Errorf("estimated block size won only %.0f%% of jobs", frac*100)
	}
}

func TestBlockSizeModelErrors(t *testing.T) {
	var m BlockSizeModel
	if _, err := m.Estimate(JobFeatures{DatasetBytes: 1, Workers: 1, MemPerWorker: 1}); err == nil {
		t.Error("untrained model estimated")
	}
	if err := m.Fit(nil, 0); err == nil {
		t.Error("empty training set accepted")
	}
	if err := m.Fit(genTraining(prng.New(1), 10), -1); err == nil {
		t.Error("negative lambda accepted")
	}
	bad := []TrainingExample{
		{Features: JobFeatures{DatasetBytes: 0, Workers: 1, MemPerWorker: 1}, BlockSize: 1},
		{}, {}, {},
	}
	if err := m.Fit(bad, 0); err == nil {
		t.Error("invalid features accepted")
	}
}

func TestPartitionedRuntimeShape(t *testing.T) {
	f := JobFeatures{DatasetBytes: 10e9, Workers: 16, MemPerWorker: 1e9}
	// Tiny blocks: overhead-dominated. Huge blocks: thrashing. A sane
	// middle block size beats both.
	tiny, _ := PartitionedRuntime(f, 1<<16)
	mid, _ := PartitionedRuntime(f, 128<<20)
	huge, _ := PartitionedRuntime(f, 8e9)
	if !(mid < tiny && mid < huge) {
		t.Errorf("runtime not U-shaped: tiny=%.1f mid=%.1f huge=%.1f", tiny, mid, huge)
	}
	if _, err := PartitionedRuntime(f, 0); err == nil {
		t.Error("zero block size accepted")
	}
}
