package repro_test

// Integration tests exercising several substrates together, mirroring the
// paper's applications end to end:
//
//   - VisIVO (3.2): notebook → workflow DAG → hybrid placement → simulation
//   - Cloud-native deployment (3.8): blueprint → what-if placement →
//     federated capacity
//   - WorldDynamics (3.7): system-dynamics run → PMU data source → autoML
//     regression over simulation outputs
//   - Compression (3.1): ParSoDA pipeline feeding the PPC compressor

import (
	"context"
	"math"
	"repro/internal/rng"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/continuum"
	"repro/internal/divexplorer"
	"repro/internal/interactive"
	"repro/internal/orchestrator"
	"repro/internal/pmu"
	"repro/internal/ppc"
	"repro/internal/worldmodel"
)

// App 3.2: a VisIVO-like notebook (import → filter → render) compiled by
// the Jupyter Workflow mechanism and orchestrated on the hybrid testbed by
// a StreamFlow-like policy.
func TestNotebookToContinuumPipeline(t *testing.T) {
	nb := &interactive.Notebook{
		Name: "visivo",
		Cells: []interactive.Cell{
			{ID: "import", Code: "import astropy\nraw = astropy.read('survey.fits')"},
			{ID: "filter", Code: "filtered = raw.decimate()"},
			{ID: "stats", Code: "moments = filtered.moments()"},
			{ID: "render", Code: "view = filtered.render(moments)"},
		},
	}
	wf, err := nb.Compile(interactive.CompileOptions{
		WorkGFlop: func(c interactive.Cell) float64 {
			if c.ID == "filter" {
				return 2000 // the heavy stage
			}
			return 50
		},
		OutputBytes: func(c interactive.Cell) float64 { return 200e6 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Len() != 4 {
		t.Fatalf("steps = %d", wf.Len())
	}
	inf := continuum.Testbed()
	placement, err := orchestrator.HEFT{}.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := orchestrator.Simulate(wf, inf, placement, "heft")
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan <= 0 {
		t.Error("empty schedule")
	}
	// Dependency order respected end to end.
	if sched.Steps["render"].Start < sched.Steps["stats"].Finish-1e-9 {
		t.Error("render started before stats finished")
	}
}

// App 3.8: blueprint-driven deployment picks cheap placements, and a Liqo
// federation extends capacity when the local cluster is full.
func TestBlueprintFederationWhatIf(t *testing.T) {
	js := `{
	  "name": "hpc-service",
	  "components": [
	    {"name": "frontend", "type": "container", "gflop": 10, "tier": "cloud"},
	    {"name": "solver", "type": "job", "gflop": 2000, "cores": 48, "tier": "hpc", "depends_on": ["frontend"]}
	  ],
	  "policies": {"placement": "cost-aware"}
	}`
	bp, err := orchestrator.ParseBlueprint(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	wf, err := bp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	inf := continuum.Testbed()
	pol, err := bp.Policy()
	if err != nil {
		t.Fatal(err)
	}
	placement, err := pol.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orchestrator.Simulate(wf, inf, placement, pol.Name()); err != nil {
		t.Fatal(err)
	}

	// Federation: an edge-only cluster cannot host the solver locally but
	// can borrow HPC cores through a peering.
	edgeCluster := orchestrator.NewCluster("edge-site", continuum.EdgeCloudTestbed())
	hpcCluster := orchestrator.NewCluster("hpc-centre", continuum.Testbed())
	if err := edgeCluster.Peer(hpcCluster, 64); err != nil {
		t.Fatal(err)
	}
	grants, err := edgeCluster.Borrow("hpc-centre", 48)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range grants {
		total += g
	}
	if total != 48 {
		t.Errorf("borrowed %d cores", total)
	}
	if err := edgeCluster.Return("hpc-centre", grants); err != nil {
		t.Fatal(err)
	}
}

// App 3.7: WorldDynamics scenario outputs + PMU sensor data feed the
// aMLLibrary-style autoML model discovery.
func TestWorldDynamicsWithSensorsAndAutoML(t *testing.T) {
	m := worldmodel.Demo()
	tr, err := m.Run(0, 300, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fit "model discovery": predict pollution from capital (both from the
	// trajectory) — the base regression case the paper mentions.
	var xs [][]float64
	var ys []float64
	for i, s := range tr.States {
		if i%4 != 0 {
			continue
		}
		xs = append(xs, []float64{s["capital"]})
		ys = append(ys, s["pollution"])
	}
	model, err := divexplorer.SelectModel(xs, ys, divexplorer.DefaultGrid(), 5)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := model.RMSE(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	spread := 0.0
	for _, y := range ys {
		spread += y * y
	}
	spread = math.Sqrt(spread / float64(len(ys)))
	if rmse > spread { // the fit must beat predicting zero
		t.Errorf("model discovery failed: RMSE %v vs signal RMS %v", rmse, spread)
	}

	// PMU as a data source: its frequency trace is a plausible new model
	// input (the Mingotti et al. integration).
	est := &pmu.Estimator{SampleRate: 10000, NominalHz: 50}
	sig := &pmu.Signal{Amplitude: 325, Frequency: 50.1, Phase: 0}
	ms, err := est.Run(sig, 10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 {
		t.Fatalf("pmu frames = %d", len(ms))
	}
	if math.Abs(ms[5].FreqHz-50.1) > 0.05 {
		t.Errorf("pmu frequency = %v", ms[5].FreqHz)
	}
}

// App 3.1 end-to-end: the survey says FastFlow+ParSoDA+WindFlow serve the
// compression application; run the actual PPC pipeline and check the
// archive round-trips.
func TestCompressionApplicationEndToEnd(t *testing.T) {
	// The study data drives the scenario selection.
	c := catalog.Default()
	i, err := c.ApplicationIndex("3.1")
	if err != nil {
		t.Fatal(err)
	}
	app := c.Applications[i]
	if len(app.SelectedTools) != 3 {
		t.Fatalf("app 3.1 selections = %v", app.SelectedTools)
	}
	corpus := ppc.SyntheticCorpus(8, 6, 1500, rng.New(11))
	a, err := ppc.Compress(context.Background(), corpus, ppc.ByName{}, ppc.Options{BlockSize: 16 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ppc.Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(corpus) {
		t.Errorf("round trip: %d of %d files", len(back), len(corpus))
	}
	if a.Ratio() >= 1 {
		t.Errorf("no compression achieved: %v", a.Ratio())
	}
}
