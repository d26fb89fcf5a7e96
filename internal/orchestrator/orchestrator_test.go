package orchestrator

import (
	"fmt"
	"repro/internal/rng"
	"testing"

	"repro/internal/continuum"
	"repro/internal/workflow"
)

// pipelineWF builds a linear pipeline with heavy data between stages.
func pipelineWF() *workflow.Workflow {
	w := workflow.New("pipeline")
	w.MustAdd(workflow.Step{ID: "ingest", WorkGFlop: 50, OutputBytes: 500e6})
	w.MustAdd(workflow.Step{ID: "filter", After: []string{"ingest"}, WorkGFlop: 200, OutputBytes: 100e6})
	w.MustAdd(workflow.Step{ID: "train", After: []string{"filter"}, WorkGFlop: 5000, Cores: 16, OutputBytes: 10e6})
	w.MustAdd(workflow.Step{ID: "report", After: []string{"train"}, WorkGFlop: 10, OutputBytes: 1e6})
	return w
}

// wideWF builds a fan-out of n independent tasks plus a final join.
func wideWF(n int) *workflow.Workflow {
	w := workflow.New("wide")
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("task-%02d", i)
		w.MustAdd(workflow.Step{ID: id, WorkGFlop: 300, Cores: 2, OutputBytes: 5e6})
		ids = append(ids, id)
	}
	w.MustAdd(workflow.Step{ID: "join", After: ids, WorkGFlop: 20})
	return w
}

func TestPoliciesProduceValidPlacements(t *testing.T) {
	wf := pipelineWF()
	for _, pol := range Policies(rng.New(7)) {
		inf := continuum.Testbed()
		p, err := pol.Place(wf, inf)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := p.Validate(wf, inf); err != nil {
			t.Errorf("%s: invalid placement: %v", pol.Name(), err)
		}
	}
}

func TestTierPinningRespected(t *testing.T) {
	wf := workflow.New("pinned")
	wf.MustAdd(workflow.Step{ID: "sense", Tier: "edge", WorkGFlop: 1})
	wf.MustAdd(workflow.Step{ID: "crunch", Tier: "hpc", After: []string{"sense"}, WorkGFlop: 100, Cores: 32})
	for _, pol := range Policies(rng.New(1)) {
		inf := continuum.Testbed()
		p, err := pol.Place(wf, inf)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		sn, _ := inf.Node(p["sense"])
		cn, _ := inf.Node(p["crunch"])
		if sn.Kind != continuum.Edge {
			t.Errorf("%s placed edge-pinned step on %s", pol.Name(), sn.Kind)
		}
		if cn.Kind != continuum.HPC {
			t.Errorf("%s placed hpc-pinned step on %s", pol.Name(), cn.Kind)
		}
	}
}

func TestUnplaceableStep(t *testing.T) {
	wf := workflow.New("impossible")
	wf.MustAdd(workflow.Step{ID: "huge", Cores: 100000})
	for _, pol := range Policies(nil) {
		inf := continuum.Testbed()
		if _, err := pol.Place(wf, inf); err == nil {
			t.Errorf("%s accepted unplaceable step", pol.Name())
		}
	}
}

func TestPlacementValidateCatchesBadPlacement(t *testing.T) {
	wf := pipelineWF()
	inf := continuum.Testbed()
	p := Placement{"ingest": "hpc-0"} // incomplete
	if err := p.Validate(wf, inf); err == nil {
		t.Error("incomplete placement accepted")
	}
	full := Placement{"ingest": "hpc-0", "filter": "hpc-0", "train": "edge-0", "report": "hpc-0"}
	// train needs 16 cores, edge-0 has 4.
	if err := full.Validate(wf, inf); err == nil {
		t.Error("over-capacity placement accepted")
	}
	full["train"] = "ghost"
	if err := full.Validate(wf, inf); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestSimulatePipeline(t *testing.T) {
	wf := pipelineWF()
	inf := continuum.Testbed()
	p, err := DataLocal{}.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(wf, inf, p, "data-local")
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan <= 0 {
		t.Error("zero makespan")
	}
	// Order preserved: ingest before filter before train before report.
	if !(s.Steps["ingest"].Finish <= s.Steps["filter"].Start+1e-9) {
		t.Error("filter started before ingest finished")
	}
	if !(s.Steps["train"].Finish <= s.Steps["report"].Start+1e-9) {
		t.Error("report started before train finished")
	}
	if s.TotalEnergyJ() <= 0 || s.CostEUR < 0 || s.NodesUsed < 1 {
		t.Errorf("accounting: energy=%v cost=%v nodes=%d", s.TotalEnergyJ(), s.CostEUR, s.NodesUsed)
	}
	// Infrastructure returned to initial state (all reservations released).
	if freeCores(inf) != inf.TotalCores() {
		t.Errorf("leaked reservations: free %d of %d", freeCores(inf), inf.TotalCores())
	}
}

func TestSimulateRespectsCoreContention(t *testing.T) {
	// Two 4-core steps on one 4-core node cannot overlap.
	wf := workflow.New("contend")
	wf.MustAdd(workflow.Step{ID: "a", WorkGFlop: 32, Cores: 4})
	wf.MustAdd(workflow.Step{ID: "b", WorkGFlop: 32, Cores: 4})
	inf := continuum.Testbed()
	p := Placement{"a": "edge-0", "b": "edge-0"}
	s, err := Simulate(wf, inf, p, "manual")
	if err != nil {
		t.Fatal(err)
	}
	aT, bT := s.Steps["a"], s.Steps["b"]
	overlap := minF(aT.Finish, bT.Finish) - maxF(aT.Start, bT.Start)
	if overlap > 1e-9 {
		t.Errorf("steps overlapped by %v on a full node", overlap)
	}
	// One of them must have queued.
	if aT.WaitS == 0 && bT.WaitS == 0 {
		t.Error("no queueing recorded under contention")
	}
}

func TestSimulateTransfersCharged(t *testing.T) {
	wf := workflow.New("move")
	wf.MustAdd(workflow.Step{ID: "produce", WorkGFlop: 1, OutputBytes: 100e6})
	wf.MustAdd(workflow.Step{ID: "consume", After: []string{"produce"}, WorkGFlop: 1})
	inf := continuum.Testbed()

	same, err := Simulate(wf, inf, Placement{"produce": "cloud-0", "consume": "cloud-0"}, "same")
	if err != nil {
		t.Fatal(err)
	}
	cross, err := Simulate(wf, inf, Placement{"produce": "hpc-0", "consume": "edge-0"}, "cross")
	if err != nil {
		t.Fatal(err)
	}
	if same.BytesMoved != 0 {
		t.Errorf("same-node moved %v bytes", same.BytesMoved)
	}
	if cross.BytesMoved != 100e6 {
		t.Errorf("cross moved %v bytes, want 1e8", cross.BytesMoved)
	}
	if cross.Steps["consume"].TransferS <= same.Steps["consume"].TransferS {
		t.Error("cross-tier transfer should be slower")
	}
	if cross.Makespan <= same.Makespan {
		t.Error("data movement should lengthen makespan")
	}
}

// The paper's Q3 claim made measurable: smart placement beats naive
// placement on a hybrid workload.
func TestPlacementQualityOrdering(t *testing.T) {
	schedules, err := Compare(
		func() *workflow.Workflow { return wideWF(12) },
		continuum.Testbed,
		Policies(rng.New(42)),
	)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range schedules {
		byName[s.Policy] = s.Makespan
	}
	if byName["heft"] > byName["random"] {
		t.Errorf("HEFT (%.2fs) should not lose to random (%.2fs)", byName["heft"], byName["random"])
	}
	if byName["data-local"] > byName["random"] {
		t.Errorf("data-local (%.2fs) should not lose to random (%.2fs)", byName["data-local"], byName["random"])
	}
	// Energy-aware consolidates: it must use no more nodes than round-robin.
	var ea, rr *Schedule
	for _, s := range schedules {
		switch s.Policy {
		case "energy-aware":
			ea = s
		case "round-robin":
			rr = s
		}
	}
	if ea.NodesUsed > rr.NodesUsed {
		t.Errorf("energy-aware used %d nodes, round-robin %d", ea.NodesUsed, rr.NodesUsed)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	run := func() *Schedule {
		wf := wideWF(10)
		inf := continuum.Testbed()
		p, err := HEFT{}.Place(wf, inf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Simulate(wf, inf, p, "heft")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.TotalEnergyJ() != b.TotalEnergyJ() || a.BytesMoved != b.BytesMoved {
		t.Error("simulation not deterministic")
	}
	for id, tr := range a.Steps {
		if b.Steps[id] != tr {
			t.Errorf("step %s trace diverged", id)
		}
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// freeCores sums the free cores of every node of inf.
func freeCores(inf *continuum.Infrastructure) int {
	n := 0
	for _, node := range inf.Nodes() {
		n += node.FreeCores()
	}
	return n
}
