// Package scenarios backs every checkmark of the paper's Table 2 with a
// runnable integration scenario: for each (application, tool) selection the
// providers made, a composition of substrate ops (ops.go) exercises the
// corresponding substrate pair and verifies the behaviour the application
// section (3.1–3.10) motivates.
//
// Scenarios are data, not code: each is a named []Op value executed by the
// generic runner (runner.go), so the same vocabulary that reproduces
// Table 2 also generates the seeded what-if configurations of
// internal/scengen.
//
// The registry is validated against the catalog: it must contain exactly
// one scenario per checkmark — no more, no fewer — so the claim "every
// integration in Table 2 is executable" is enforced by a test.
package scenarios

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exp"
)

// Scenario is one executable Table 2 checkmark: a named composition of
// substrate ops. The ops receive the shared experiment environment and
// must follow its determinism obligations: every random stream derives
// from env streams, never math/rand.
type Scenario struct {
	App  string // application ID, e.g. "3.1"
	Tool string // tool name as in the catalog
	Desc string
	Ops  []Op
}

// Key renders "app×tool".
func (s Scenario) Key() string { return s.App + "×" + s.Tool }

// Run executes the scenario's composition, discarding the final state.
func (s Scenario) Run(ctx context.Context, env *exp.Env) error {
	_, err := RunOps(ctx, env, s.Ops)
	return err
}

// Shared compositions for tools selected by several applications.

func fastPathOps() []Op { return []Op{FastPath{PayloadBytes: 64 << 10}} }

func capioStoreOps() []Op { return []Op{CapioStream{Writes: 3, WriteBytes: 100}} }

func blueprintOps() []Op {
	return []Op{Blueprint{JSON: `{"name":"svc","components":[
	  {"name":"front","type":"container","gflop":10,"tier":"cloud"},
	  {"name":"worker","type":"job","gflop":500,"cores":4,"depends_on":["front"]}]}`}}
}

func federationOps() []Op {
	return []Op{Federation{Local: "edge-cloud", Remote: "default", ShareCores: 64, Borrow: 32}}
}

func migrationOps() []Op { return []Op{ConnectionMigration{StateBytes: 1e6}} }

// Registry returns all 28 scenarios.
func Registry() []Scenario {
	return []Scenario{
		// --- 3.1 Compression of petascale collections --------------------
		{App: "3.1", Tool: "FastFlow",
			Desc: "stream-parallel PPC: the farmed compressor matches the sequential archive byte for byte",
			Ops: []Op{
				SynthCorpus{Projects: 6, FilesPer: 6, Bytes: 1200, Stream: "3.1/FastFlow/corpus"},
				CompressCompare{BlockSize: 8 << 10, SeqWorkers: 1, ParWorkers: 4},
			}},
		{App: "3.1", Tool: "ParSoDA",
			Desc: "parallel sorting/grouping phase: files grouped by project via the data-analysis pipeline",
			Ops: []Op{
				SynthCorpus{Projects: 5, FilesPer: 4, Bytes: 600, Stream: "3.1/ParSoDA/corpus"},
				GroupByProject{Parallelism: 4, WantGroups: 5},
			}},
		{App: "3.1", Tool: "WindFlow",
			Desc: "streaming semantics for intra-node phases: windowed throughput accounting over block sizes",
			Ops: []Op{
				SynthCorpus{Projects: 4, FilesPer: 8, Bytes: 800, Stream: "3.1/WindFlow/corpus"},
				WindowedSum{Window: 4, Workers: 2},
			}},

		// --- 3.2 VisIVO --------------------------------------------------
		{App: "3.2", Tool: "ICS",
			Desc: "interactive HPC access: a reserved visualization session starts at its reservation",
			Ops: []Op{
				ClusterReservation{
					ClusterCores: 64, ReservedCores: 8, Start: 100, End: 200,
					BatchCores: 64, BatchDuration: 1000,
					SessionCores: 8, SessionDuration: 50, SubmitAt: 90,
				},
			}},
		{App: "3.2", Tool: "Jupyter Workflow",
			Desc: "VisIVO importing/filtering/viewing cells compile to a valid DAG",
			Ops: []Op{
				NotebookCompile{Name: "visivo", Cells: []NotebookCell{
					{ID: "import", Code: "import visivo\ndata = visivo.load('cube.fits')"},
					{ID: "filter", Code: "small = data.decimate()"},
					{ID: "view", Code: "img = small.render()"},
				}, WantFirst: "import", WantLast: "view"},
			}},
		{App: "3.2", Tool: "StreamFlow",
			Desc: "hybrid placement of the VisIVO workflow across HPC and cloud",
			Ops: []Op{
				BuildWorkflow{Name: "visivo", Steps: []StepSpec{
					{ID: "import", GFlop: 100, OutBytes: 500e6},
					{ID: "filter", After: []string{"import"}, GFlop: 3000, Cores: 32, Tier: "hpc", OutBytes: 100e6},
					{ID: "view", After: []string{"filter"}, GFlop: 50, Tier: "cloud"},
				}},
				Testbed{Preset: "default"},
				Place{Policy: "heft"},
				Simulate{},
			}},
		{App: "3.2", Tool: "Nethuns",
			Desc: "fast network path beats the default path for VisIVO's I/O",
			Ops:  fastPathOps()},
		{App: "3.2", Tool: "CAPIO",
			Desc: "filtering output streams into the viewer without code changes",
			Ops:  capioStoreOps()},

		// --- 3.3 Genomic variant calling ----------------------------------
		{App: "3.3", Tool: "StreamFlow",
			Desc: "the pipeline runs remotely on HPC with fast provisioning (placement honours the pin)",
			Ops: []Op{
				BuildWorkflow{Name: "variant-calling", Steps: []StepSpec{
					{ID: "align", GFlop: 2000, Cores: 16, Tier: "hpc", OutBytes: 1e9},
					{ID: "call", After: []string{"align"}, GFlop: 800, Cores: 8, Tier: "hpc"},
				}},
				Testbed{Preset: "default"},
				Place{Policy: "data-local"},
				Simulate{},
				RequireTier{Node: "hpc"},
			}},

		// --- 3.4 Edge-Cloud federation ------------------------------------
		{App: "3.4", Tool: "INDIGO",
			Desc: "dynamic orchestration from a TOSCA-style blueprint",
			Ops:  blueprintOps()},
		{App: "3.4", Tool: "Liqo",
			Desc: "single cluster joins a larger federation and borrows capacity",
			Ops:  federationOps()},
		{App: "3.4", Tool: "MoveQUIC",
			Desc: "server-side connection migration keeps client connections alive",
			Ops:  migrationOps()},

		// --- 3.5 Serverledge ----------------------------------------------
		{App: "3.5", Tool: "MoveQUIC",
			Desc: "live migration of a long-running function pays off when work remains",
			Ops: []Op{
				FaasMigration{WorkGFlop: 500, DeadlineS: 100, StateBytes: 10e6,
					RemainingGFlop: 400, From: "edge-0", To: "cloud-0"},
			}},
		{App: "3.5", Tool: "PESOS",
			Desc: "energy-efficient FaaS orchestration uses less energy than cloud-only",
			Ops: []Op{
				FaasEnergyRace{WorkGFlop: 1, DeadlineS: 2, StateBytes: 1e6,
					RatePerS: 10, HorizonS: 30, Stream: "3.5/PESOS/trace"},
			}},

		// --- 3.6 Galaxy formation I/O --------------------------------------
		{App: "3.6", Tool: "Nethuns",
			Desc: "checkpoint output path improved by the fast network abstraction",
			Ops:  fastPathOps()},
		{App: "3.6", Tool: "CAPIO",
			Desc: "FLASH→SYGMA streaming overlap beats staged exchange",
			Ops: []Op{
				CouplingOverlap{Chunks: 100, ProduceS: 0.5, TransferS: 0.1, ConsumeS: 0.4, MinSpeedup: 1.3},
			}},

		// --- 3.7 WorldDynamics ---------------------------------------------
		{App: "3.7", Tool: "Jupyter Workflow",
			Desc: "model cells (parameters → run → analyze) compile to a distributed DAG",
			Ops: []Op{
				NotebookCompile{Name: "worlddyn", Cells: []NotebookCell{
					{ID: "params", Code: "import worlddynamics\ncfg = worlddynamics.defaults()"},
					{ID: "run", Code: "traj = cfg.integrate()"},
					{ID: "analyze", Code: "peak = traj.max()"},
				}, WantLen: 3},
			}},
		{App: "3.7", Tool: "BDMaaS+",
			Desc: "parallel what-if simulation of scenarios via policy comparison",
			Ops: []Op{
				WhatIfDepletion{T0: 0, T1: 200, Dt: 0.5, Depletions: []float64{0.001, 0.002, 0.004}},
			}},
		{App: "3.7", Tool: "aMLLibrary",
			Desc: "regression-based model discovery over trajectory data",
			Ops: []Op{
				TrajectoryRegression{T0: 0, T1: 200, Dt: 0.5, SampleEvery: 2, Folds: 4},
			}},
		{App: "3.7", Tool: "Mingotti et al.",
			Desc: "virtual PMU supplies fine-grained measurements as a new data source",
			Ops: []Op{
				PMUFrames{SampleRate: 10000, NominalHz: 50, Amplitude: 325, Frequency: 50.1, Frames: 8},
			}},

		// --- 3.8 Cloud-native deployment -----------------------------------
		{App: "3.8", Tool: "INDIGO",
			Desc: "TOSCA blueprint → deployment plan enforcement",
			Ops:  blueprintOps()},
		{App: "3.8", Tool: "Liqo",
			Desc: "deployment spans a dynamically created federation",
			Ops:  federationOps()},
		{App: "3.8", Tool: "BDMaaS+",
			Desc: "what-if placement optimization picks the cheapest viable deployment",
			Ops: []Op{
				CompareCosts{Name: "svc", Steps: []StepSpec{
					{ID: "api", GFlop: 50, Tier: "cloud", OutBytes: 10e6},
					{ID: "batch", After: []string{"api"}, GFlop: 1000, Cores: 8},
				}, Policies: []string{"cost-aware", "round-robin"}},
			}},

		// --- 3.9 DivExplorer -----------------------------------------------
		{App: "3.9", Tool: "ICS",
			Desc: "subgroup analysis reachable from a booked interactive session",
			Ops: []Op{
				BookedSession{CalendarCores: 16, Rate: 1, User: "analyst", Credits: 100,
					Cores: 4, Start: 0, End: 3600, ClusterCores: 32},
			}},
		{App: "3.9", Tool: "ParSoDA",
			Desc: "parallel per-subgroup reduction via the data-analysis pipeline",
			Ops: []Op{
				SubgroupReduce{Rows: 1000, Mod: 10, Parallelism: 4},
			}},
		{App: "3.9", Tool: "aMLLibrary",
			Desc: "model comparison and selection for the regression task",
			Ops: []Op{
				SyntheticRegression{Samples: 120, Scale: 5, Slope: 2, Intercept: 1,
					Noise: 0.01, MaxRMSE: 0.1, Folds: 4, Stream: "3.9/aMLLibrary/data"},
			}},

		// --- 3.10 RISC-V compilation flow ------------------------------------
		{App: "3.10", Tool: "StreamFlow",
			Desc: "the optimization passes run as an orchestrated workflow",
			Ops: []Op{
				MLIRPassWorkflow{Size: 32, A: 3},
			}},
		{App: "3.10", Tool: "MLIR",
			Desc: "progressive lowering to the RISC-V dialect preserves semantics",
			Ops: []Op{
				MLIRLoweringEquivalence{Size: 16, A: 2},
			}},
	}
}

// ValidateAgainstCatalog checks that the registry covers exactly the
// checkmarks of the paper's Table 2.
func ValidateAgainstCatalog(c *catalog.Catalog, reg []Scenario) error {
	want := map[string]bool{}
	for _, app := range c.Applications {
		for _, tool := range app.SelectedTools {
			want[app.ID+"×"+tool] = true
		}
	}
	seen := map[string]bool{}
	for _, s := range reg {
		k := s.Key()
		if seen[k] {
			return fmt.Errorf("scenarios: duplicate scenario %s", k)
		}
		seen[k] = true
		if !want[k] {
			return fmt.Errorf("scenarios: %s is not a Table 2 checkmark", k)
		}
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("scenarios: checkmark %s has no scenario", k)
		}
	}
	return nil
}
