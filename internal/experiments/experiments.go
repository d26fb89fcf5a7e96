// Package experiments assembles the repository's complete experiment
// registry: every Table 2 scenario, the full-report build, the orchestrator
// sweeps, and the continuum what-ifs, all under the unified exp contract.
// smsreport's -list/-run/-json flags, smsd's POST /experiments and runpack's
// pack and regress all run this one assembly, so a workload registered here
// is listable, runnable, memoizable and sealable through each of them.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/capio"
	"repro/internal/continuum"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/faas"
	"repro/internal/orchestrator"
	"repro/internal/report"
	"repro/internal/scenarios"
	"repro/internal/scengen"
	"repro/internal/workflow"
)

// ExpectedExperiments is the single source of truth for the registry size:
// 28 Table 2 scenarios, the engine workloads (report, sweeps, continuum
// what-ifs, corpus), and the generated scengen families. smsreport's
// "<n> experiments" pin and the completeness test derive from this one
// constant, so registry growth is a one-line change here (the completeness
// test still cross-checks the actual names).
const ExpectedExperiments = 42

// demoPipeline is the canonical fan-out/fan-in workflow the sweep
// experiments run over: ingest → 8 shards → train → publish.
func demoPipeline() *workflow.Workflow {
	wf := workflow.New("pipeline")
	wf.MustAdd(workflow.Step{ID: "ingest", WorkGFlop: 50, OutputBytes: 100e6})
	var shards []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("shard-%d", i)
		wf.MustAdd(workflow.Step{ID: id, After: []string{"ingest"}, WorkGFlop: 400, Cores: 4, OutputBytes: 20e6})
		shards = append(shards, id)
	}
	wf.MustAdd(workflow.Step{ID: "train", After: shards, WorkGFlop: 3000, Cores: 16, OutputBytes: 10e6})
	wf.MustAdd(workflow.Step{ID: "publish", After: []string{"train"}, WorkGFlop: 10})
	return wf
}

// New assembles the full registry over the given study. Registration
// failures (duplicate names, unfingerprintable specs) are programming
// errors surfaced immediately.
func New(study *core.Study) (*exp.Registry, error) {
	reg := exp.NewRegistry()
	reg.SetName("sms/experiments")
	for _, e := range scenarios.Experiments() {
		if err := reg.Register(e); err != nil {
			return nil, err
		}
	}
	for _, e := range corpus.Experiments() {
		if err := reg.Register(e); err != nil {
			return nil, err
		}
	}
	for _, e := range scengen.Experiments() {
		if err := reg.Register(e); err != nil {
			return nil, err
		}
	}
	repExp, err := report.Experiment(study)
	if err != nil {
		return nil, err
	}
	for _, e := range []exp.Experiment{
		repExp,
		orchestrator.FaultSweepExperiment("sweep/faults", demoPipeline, continuum.Testbed,
			orchestrator.DataLocal{}, []float64{0, 0.1, 0.3, 0.5}, 50),
		orchestrator.ResumeSweepExperiment("sweep/resume", demoPipeline, continuum.Testbed,
			orchestrator.DataLocal{}, []float64{0.1, 0.3, 0.5}, 50),
		orchestrator.SlackSweepExperiment("sweep/slack", demoPipeline, continuum.Testbed,
			[]float64{1, 1.5, 2, 3}),
		faasExperiment(),
		energyExperiment(),
		ioExperiment(),
	} {
		if err := reg.Register(e); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// Default assembles the registry over the embedded study dataset.
func Default() (*exp.Registry, error) {
	study, err := core.Default()
	if err != nil {
		return nil, err
	}
	return New(study)
}

// faasExperiment compares FaaS schedulers on a Poisson invocation trace
// drawn from the Env.
func faasExperiment() exp.Experiment {
	const rate, horizon = 20.0, 60.0
	return exp.Experiment{
		Spec: exp.Spec{Name: "continuum/faas", Params: map[string]any{
			"rate": rate, "horizon": horizon,
			"schedulers": []string{"edge-first", "cloud-only", "energy-aware"},
		}},
		Desc: "FaaS what-if: edge-first vs cloud-only vs energy-aware on a Poisson trace",
		Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			fns := []faas.Function{
				{Name: "detect", WorkGFlop: 0.2, Class: faas.LowLatency, DeadlineS: 0.8, StateBytes: 1e6},
				{Name: "train", WorkGFlop: 50, Class: faas.Batch, DeadlineS: 10, StateBytes: 50e6},
			}
			trace := faas.PoissonTrace(fns, rate, horizon, env.Rng(spec.Name+"/trace"))
			results, names, err := faas.CompareSchedulers(fns, trace, continuum.EdgeCloudTestbed,
				[]faas.Scheduler{faas.EdgeFirst{}, faas.CloudOnly{}, faas.EnergyAware{}})
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			metrics := map[string]float64{"invocations": float64(len(trace))}
			fmt.Fprintf(&b, "%-14s %10s %10s %10s %8s %8s %10s\n",
				"scheduler", "p50", "p95", "offload", "cold", "miss", "energy")
			for _, n := range names {
				r := results[n]
				s, err := r.LatencySummary()
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&b, "%-14s %9.3fs %9.3fs %9.1f%% %8d %8d %9.0fJ\n",
					n, s.Median, s.P95, r.OffloadRate()*100, r.ColdStarts, r.Violations, r.EnergyJ)
				metrics["energy_j/"+n] = r.EnergyJ
				metrics["p95_s/"+n] = s.P95
			}
			return &exp.Result{
				Artifacts: map[string]string{"table": b.String()},
				Metrics:   metrics,
			}, nil
		},
	}
}

// energyExperiment scores consolidating vs spreading VM placement on the
// three-tier testbed.
func energyExperiment() exp.Experiment {
	const fleet = 12
	return exp.Experiment{
		Spec: exp.Spec{Name: "continuum/energy", Params: map[string]any{"vms": fleet}},
		Desc: "energy what-if: consolidating vs spreading placement of a VM fleet",
		Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			vms := make([]energy.VM, fleet)
			for i := range vms {
				vms[i] = energy.VM{ID: fmt.Sprintf("vm-%02d", i), Cores: 4, MinGFLOPSPerCore: 5, DurationS: 3600}
			}
			var b strings.Builder
			metrics := map[string]float64{}
			fmt.Fprintf(&b, "%-14s %7s %10s %12s %10s\n", "placer", "nodes", "power", "energy(1h)", "QoS-viol")
			for _, p := range []energy.Placer{energy.Consolidating{}, energy.Spreading{}} {
				inf := continuum.Testbed()
				a, err := p.Place(vms, inf)
				if err != nil {
					return nil, err
				}
				rep, err := energy.Evaluate(p.Name(), vms, a, inf)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&b, "%-14s %7d %9.0fW %11.0fJ %10d\n",
					rep.Placer, rep.ActiveNodes, rep.TotalPowerW, rep.EnergyJ, rep.QoSViolations)
				metrics["energy_j/"+rep.Placer] = rep.EnergyJ
			}
			return &exp.Result{
				Artifacts: map[string]string{"table": b.String()},
				Metrics:   metrics,
			}, nil
		},
	}
}

// ioExperiment quantifies the CAPIO streaming overlap against staged
// exchange on the coupled-application I/O model.
func ioExperiment() exp.Experiment {
	const chunks = 200
	return exp.Experiment{
		Spec: exp.Spec{Name: "continuum/io", Params: map[string]any{"chunks": chunks}},
		Desc: "I/O what-if: staged vs CAPIO-style streamed exchange of a coupled run",
		Run: func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			m := capio.CouplingModel{Chunks: chunks, ProduceS: 0.5, TransferS: 0.1, ConsumeS: 0.4}
			staged, err := m.StagedMakespan()
			if err != nil {
				return nil, err
			}
			streamed, err := m.StreamedMakespan()
			if err != nil {
				return nil, err
			}
			overlap, err := m.Overlap()
			if err != nil {
				return nil, err
			}
			table := fmt.Sprintf("staged: %.1fs\nstreamed: %.1fs\noverlap: %.2fx\n", staged, streamed, overlap)
			return &exp.Result{
				Artifacts: map[string]string{"table": table},
				Metrics: map[string]float64{
					"staged_s": staged, "streamed_s": streamed, "overlap_x": overlap,
				},
			}, nil
		},
	}
}
