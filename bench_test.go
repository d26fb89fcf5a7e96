// Benchmark harness regenerating every table and figure of the paper plus
// the ablation experiments behind the Section 4 discussion claims. Run:
//
//	go test -bench=. -benchmem
//
// Table/figure benches measure regeneration cost and report the reproduced
// headline values via b.ReportMetric, so `-bench` output doubles as the
// experiment log (see EXPERIMENTS.md for the paper-vs-measured record).
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/bigdata"
	"repro/internal/capio"
	"repro/internal/continuum"
	"repro/internal/core"
	"repro/internal/divexplorer"
	"repro/internal/energy"
	"repro/internal/faas"
	"repro/internal/orchestrator"
	"repro/internal/ppc"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/workflow"
)

func benchName(prefix string, n int) string { return fmt.Sprintf("%s-%d", prefix, n) }

func mustStudy(b *testing.B) *repro.Study {
	b.Helper()
	s, err := repro.NewStudy()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1Classification regenerates Table 1 (25 tools × 5
// directions) in ASCII form.
func BenchmarkTable1Classification(b *testing.B) {
	s := mustStudy(b)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := repro.Table1(s)
		out, err := tb.ASCII()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tb.Rows)
		_ = out
	}
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(len(s.Catalog.Tools)), "tools")
}

// BenchmarkTable2IntegrationMatrix regenerates Table 2 (10 applications ×
// 25 tools, 28 checkmarks).
func BenchmarkTable2IntegrationMatrix(b *testing.B) {
	s := mustStudy(b)
	var checks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := repro.Table2(s)
		if _, err := tb.ASCII(); err != nil {
			b.Fatal(err)
		}
		checks = s.Survey.Matrix().Checkmarks()
	}
	b.ReportMetric(float64(checks), "checkmarks")
}

// BenchmarkFig1SpokeStructure renders the Figure 1 organizational picture.
func BenchmarkFig1SpokeStructure(b *testing.B) {
	s := mustStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := len(report.Fig1(s)); out == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig2ToolDistribution regenerates Figure 2 (pie 3/7/3/6/6).
func BenchmarkFig2ToolDistribution(b *testing.B) {
	s := mustStudy(b)
	var orch int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := repro.Fig2(s)
		if _, err := p.SVG(320); err != nil {
			b.Fatal(err)
		}
		orch = s.ToolDistribution().Count(string(repro.Orchestration))
	}
	b.ReportMetric(float64(orch), "orchestration-tools")
}

// BenchmarkFig3InstitutionCoverage regenerates Figure 3 (histogram
// {1:5, 2:1, 3:2, 4:1, 5:0}).
func BenchmarkFig3InstitutionCoverage(b *testing.B) {
	s := mustStudy(b)
	var single int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := repro.Fig3(s)
		if _, err := c.SVG(480, 320); err != nil {
			b.Fatal(err)
		}
		single = s.InstitutionCoverage().Count(1)
	}
	b.ReportMetric(float64(single), "single-topic-institutions")
}

// BenchmarkFig4VoteDistribution regenerates Figure 4 (pie 4/11/1/6/6).
func BenchmarkFig4VoteDistribution(b *testing.B) {
	s := mustStudy(b)
	var orchVotes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := repro.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.SVG(320); err != nil {
			b.Fatal(err)
		}
		d, err := s.VoteDistribution()
		if err != nil {
			b.Fatal(err)
		}
		orchVotes = d.Count(string(repro.Orchestration))
	}
	b.ReportMetric(float64(orchVotes), "orchestration-votes")
}

// BenchmarkQ1Directions answers research question 1.
func BenchmarkQ1Directions(b *testing.B) {
	s := mustStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := s.AnswerQ1()
		if len(a.Findings) != 5 {
			b.Fatal("wrong findings")
		}
	}
}

// BenchmarkQ2Spread answers research question 2 (balance + coverage).
func BenchmarkQ2Spread(b *testing.B) {
	s := mustStudy(b)
	var balance float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AnswerQ2()
		balance = s.ToolDistribution().Balance()
	}
	b.ReportMetric(balance, "balance")
}

// BenchmarkQ3CriticalNeeds answers research question 3 (vote skew).
func BenchmarkQ3CriticalNeeds(b *testing.B) {
	s := mustStudy(b)
	var imbalance float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AnswerQ3(); err != nil {
			b.Fatal(err)
		}
		d, _ := s.VoteDistribution()
		imbalance = d.Imbalance()
	}
	b.ReportMetric(imbalance, "vote-imbalance")
}

// BenchmarkClassifier measures the keyword classifier over the 25 tools and
// reports its accuracy against the manual labels.
func BenchmarkClassifier(b *testing.B) {
	c := repro.DefaultCatalog()
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.EvaluateClassifier(c)
		acc = m.Accuracy()
	}
	b.ReportMetric(acc*100, "accuracy-%")
}

// --- Ablation benches (Section 4 discussion claims) -----------------------

// BenchmarkAblationPlacement compares orchestration policies on a hybrid
// fan-out workload: placement quality is the Q3 "critical need".
func BenchmarkAblationPlacement(b *testing.B) {
	mkWf := func() *workflow.Workflow {
		wf := workflow.New("wide")
		var ids []string
		for i := 0; i < 12; i++ {
			id := string(rune('a' + i))
			wf.MustAdd(workflow.Step{ID: id, WorkGFlop: 300, Cores: 2, OutputBytes: 5e6})
			ids = append(ids, id)
		}
		wf.MustAdd(workflow.Step{ID: "join", After: ids, WorkGFlop: 20})
		return wf
	}
	for _, pol := range orchestrator.Policies(rng.New(42)) {
		pol := pol
		b.Run(pol.Name(), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				wf := mkWf()
				inf := continuum.Testbed()
				p, err := pol.Place(wf, inf)
				if err != nil {
					b.Fatal(err)
				}
				s, err := orchestrator.Simulate(wf, inf, p, pol.Name())
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(makespan, "makespan-s")
		})
	}
}

// BenchmarkAblationEnergyPlacement compares PESOS-style consolidation
// against spreading (Section 2.3).
func BenchmarkAblationEnergyPlacement(b *testing.B) {
	vms := make([]energy.VM, 8)
	for i := range vms {
		vms[i] = energy.VM{ID: string(rune('a' + i)), Cores: 4, MinGFLOPSPerCore: 5, DurationS: 3600}
	}
	for _, placer := range []energy.Placer{energy.Consolidating{}, energy.Spreading{}} {
		placer := placer
		b.Run(placer.Name(), func(b *testing.B) {
			var power float64
			for i := 0; i < b.N; i++ {
				inf := continuum.Testbed()
				a, err := placer.Place(vms, inf)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := energy.Evaluate(placer.Name(), vms, a, inf)
				if err != nil {
					b.Fatal(err)
				}
				power = rep.TotalPowerW
			}
			b.ReportMetric(power, "watts")
		})
	}
}

// BenchmarkAblationStreamFarm measures WindFlow-style farm throughput at
// increasing parallelism degrees (Section 4: "high-performance Big Data
// runtimes inject data parallelism").
func BenchmarkAblationStreamFarm(b *testing.B) {
	work := func(x int) int {
		acc := x
		for i := 0; i < 2000; i++ {
			acc = acc*31 + i
		}
		return acc
	}
	in := make([]int, 2000)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := stream.FromSlice(context.Background(), in)
				out, err := stream.Map(src, work, stream.Workers(workers)).Collect()
				if err != nil || len(out) != 2000 {
					b.Fatalf("n=%d err=%v", len(out), err)
				}
			}
			b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkAblationFaaS compares FaaS schedulers on the same trace
// (near-data processing, Sections 2.2/2.5).
func BenchmarkAblationFaaS(b *testing.B) {
	fns := []faas.Function{
		{Name: "detect", WorkGFlop: 0.2, Class: faas.LowLatency, DeadlineS: 0.8, StateBytes: 1e6},
		{Name: "train", WorkGFlop: 50, Class: faas.Batch, DeadlineS: 10, StateBytes: 50e6},
	}
	trace := faas.PoissonTrace(fns, 20, 30, rng.New(4))
	for _, sched := range []faas.Scheduler{faas.EdgeFirst{}, faas.CloudOnly{}, faas.EnergyAware{}} {
		sched := sched
		b.Run(sched.Name(), func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				p := faas.NewPlatform(continuum.EdgeCloudTestbed(), sched)
				for _, fn := range fns {
					if err := p.Deploy(fn); err != nil {
						b.Fatal(err)
					}
				}
				r, err := p.Run(trace)
				if err != nil {
					b.Fatal(err)
				}
				s, err := r.LatencySummary()
				if err != nil {
					b.Fatal(err)
				}
				median = s.Median
			}
			b.ReportMetric(median*1000, "p50-ms")
		})
	}
}

// BenchmarkAblationPPC compares compression permutations on the synthetic
// Software-Heritage corpus (application 3.1).
func BenchmarkAblationPPC(b *testing.B) {
	files := ppc.SyntheticCorpus(20, 10, 2000, rng.New(42))
	for _, perm := range []ppc.Permutation{ppc.Identity{}, ppc.ByName{}, ppc.ByContent{}} {
		perm := perm
		b.Run(perm.Name(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				a, err := ppc.Compress(context.Background(), files, perm, ppc.Options{BlockSize: 32 << 10, Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				ratio = a.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkAblationCoupling compares staged vs streamed I/O coupling
// (application 3.6, CAPIO).
func BenchmarkAblationCoupling(b *testing.B) {
	m := capio.CouplingModel{Chunks: 500, ProduceS: 0.5, TransferS: 0.1, ConsumeS: 0.4}
	b.Run("staged", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			s, err := m.StagedMakespan()
			if err != nil {
				b.Fatal(err)
			}
			v = s
		}
		b.ReportMetric(v, "makespan-s")
	})
	b.Run("streamed", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			s, err := m.StreamedMakespan()
			if err != nil {
				b.Fatal(err)
			}
			v = s
		}
		b.ReportMetric(v, "makespan-s")
	})
}

// BenchmarkAblationBlockSize compares BLEST-ML estimated block sizes
// against a fixed default on simulated partitioned runtimes (Section 2.4).
func BenchmarkAblationBlockSize(b *testing.B) {
	r := rng.New(33)
	sample := func() bigdata.JobFeatures {
		return bigdata.JobFeatures{
			DatasetBytes: 1e10 + r.Float64()*1e11,
			Workers:      4 + r.Intn(128),
			MemPerWorker: 5e8 + r.Float64()*4e9,
		}
	}
	var train []bigdata.TrainingExample
	for i := 0; i < 300; i++ {
		f := sample()
		train = append(train, bigdata.TrainingExample{Features: f, BlockSize: bigdata.OracleBlockSize(f)})
	}
	var model bigdata.BlockSizeModel
	if err := model.Fit(train, 1e-6); err != nil {
		b.Fatal(err)
	}
	job := sample()
	b.Run("estimated", func(b *testing.B) {
		var runtime float64
		for i := 0; i < b.N; i++ {
			est, err := model.Estimate(job)
			if err != nil {
				b.Fatal(err)
			}
			runtime, err = bigdata.PartitionedRuntime(job, est)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(runtime, "sim-runtime-s")
	})
	b.Run("fixed-4GiB", func(b *testing.B) {
		var runtime float64
		for i := 0; i < b.N; i++ {
			var err error
			runtime, err = bigdata.PartitionedRuntime(job, 4<<30)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(runtime, "sim-runtime-s")
	})
}

// BenchmarkDivExplorerMining measures frequent-subgroup mining throughput
// (application 3.9).
func BenchmarkDivExplorerMining(b *testing.B) {
	r := rng.New(5)
	var data divexplorer.Dataset
	for i := 0; i < 2000; i++ {
		data.Rows = append(data.Rows, divexplorer.Row{
			Attrs: map[string]string{
				"a": string(rune('0' + r.Intn(3))),
				"b": string(rune('0' + r.Intn(3))),
				"c": string(rune('0' + r.Intn(3))),
			},
			Outcome: r.Float64() < 0.2,
		})
	}
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		sg, err := divexplorer.Explore(&data, divexplorer.Config{MinSupport: 0.05, MaxLen: 2})
		if err != nil {
			b.Fatal(err)
		}
		found = len(sg)
	}
	b.ReportMetric(float64(found), "subgroups")
}

// BenchmarkAblationEnergyDeadline sweeps the deadline slack of the
// energy-minimizing scheduler (the energy/performance trade-off of the
// energy-aware WMS literature the paper cites in Section 2.3).
func BenchmarkAblationEnergyDeadline(b *testing.B) {
	mkWf := func() *workflow.Workflow {
		wf := workflow.New("wide")
		var ids []string
		for i := 0; i < 10; i++ {
			id := string(rune('a' + i))
			wf.MustAdd(workflow.Step{ID: id, WorkGFlop: 300, Cores: 2, OutputBytes: 5e6})
			ids = append(ids, id)
		}
		wf.MustAdd(workflow.Step{ID: "join", After: ids, WorkGFlop: 20})
		return wf
	}
	for _, slack := range []float64{1, 2, 4} {
		slack := slack
		b.Run(fmt.Sprintf("slack-%.0fx", slack), func(b *testing.B) {
			var makespan, dynamicJ float64
			for i := 0; i < b.N; i++ {
				wf := mkWf()
				inf := continuum.Testbed()
				pol := orchestrator.EnergyDeadline{Slack: slack}
				p, err := pol.Place(wf, inf)
				if err != nil {
					b.Fatal(err)
				}
				s, err := orchestrator.Simulate(wf, inf, p, pol.Name())
				if err != nil {
					b.Fatal(err)
				}
				makespan, dynamicJ = s.Makespan, s.DynamicEnergyJ
			}
			b.ReportMetric(makespan, "makespan-s")
			b.ReportMetric(dynamicJ, "dynamic-J")
		})
	}
}

// BenchmarkQ3Bootstrap measures the validity-analysis extension.
func BenchmarkQ3Bootstrap(b *testing.B) {
	s := mustStudy(b)
	var stability float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.BootstrapQ3(1000, 42)
		if err != nil {
			b.Fatal(err)
		}
		stability = res.Stability
	}
	b.ReportMetric(stability*100, "stability-%")
}
