package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/continuum"
)

func fleet(t *testing.T, n int) []VM {
	t.Helper()
	vms := make([]VM, n)
	for i := range vms {
		vms[i] = VM{ID: fmt.Sprintf("vm-%02d", i), Cores: 4, MinGFLOPSPerCore: 5, DurationS: 3600}
	}
	return vms
}

func TestVMValidate(t *testing.T) {
	bad := []VM{
		{},
		{ID: "a", Cores: 0},
		{ID: "a", Cores: 1, MinGFLOPSPerCore: -1},
		{ID: "a", Cores: 1, DurationS: -1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad VM %d accepted", i)
		}
	}
	good := VM{ID: "a", Cores: 2}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
}

// homogeneousCloud builds n identical cloud hosts — the setting where node
// count and power advantages of consolidation coincide.
func homogeneousCloud(t *testing.T, n int) *continuum.Infrastructure {
	t.Helper()
	inf := continuum.NewInfrastructure()
	for i := 0; i < n; i++ {
		if err := inf.AddNode(&continuum.Node{
			ID: fmt.Sprintf("host-%02d", i), Kind: continuum.Cloud, Region: "dc",
			Cores: 16, GFLOPSPerCore: 25, MemoryGB: 64,
			IdleW: 120, MaxW: 360, CostPerCoreHour: 0.05,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return inf
}

// The paper's PESOS claim made measurable, part 1 (homogeneous data centre):
// consolidation powers on fewer nodes and draws less power than spreading.
func TestConsolidationBeatsSpreadingHomogeneous(t *testing.T) {
	vms := fleet(t, 8) // 32 cores over 8×16-core hosts

	infC := homogeneousCloud(t, 8)
	aC, err := Consolidating{}.Place(vms, infC)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := Evaluate("consolidating", vms, aC, infC)
	if err != nil {
		t.Fatal(err)
	}

	infS := homogeneousCloud(t, 8)
	aS, err := Spreading{}.Place(vms, infS)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Evaluate("spreading", vms, aS, infS)
	if err != nil {
		t.Fatal(err)
	}

	if repC.QoSViolations != 0 || repS.QoSViolations != 0 {
		t.Fatalf("QoS violations: %d / %d", repC.QoSViolations, repS.QoSViolations)
	}
	if repC.ActiveNodes != 2 {
		t.Errorf("consolidating used %d nodes, want 2", repC.ActiveNodes)
	}
	if repS.ActiveNodes != 8 {
		t.Errorf("spreading used %d nodes, want 8", repS.ActiveNodes)
	}
	if repC.TotalPowerW >= repS.TotalPowerW {
		t.Errorf("consolidating power %.0fW not below spreading %.0fW", repC.TotalPowerW, repS.TotalPowerW)
	}
	if repC.EnergyJ >= repS.EnergyJ {
		t.Errorf("consolidating energy %.0fJ not below spreading %.0fJ", repC.EnergyJ, repS.EnergyJ)
	}
}

// Part 2 (heterogeneous continuum): node counts may legitimately diverge
// (many low-power edge nodes can beat two giant HPC hosts), but the power
// objective must still win.
func TestConsolidationBeatsSpreadingHeterogeneous(t *testing.T) {
	vms := fleet(t, 8)

	infC := continuum.Testbed()
	aC, err := Consolidating{}.Place(vms, infC)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := Evaluate("consolidating", vms, aC, infC)
	if err != nil {
		t.Fatal(err)
	}

	infS := continuum.Testbed()
	aS, err := Spreading{}.Place(vms, infS)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Evaluate("spreading", vms, aS, infS)
	if err != nil {
		t.Fatal(err)
	}
	if repC.TotalPowerW >= repS.TotalPowerW {
		t.Errorf("consolidating power %.0fW not below spreading %.0fW", repC.TotalPowerW, repS.TotalPowerW)
	}
}

func TestQoSConstrainsPlacement(t *testing.T) {
	// Edge nodes offer 8 GF/core in the testbed; demand 20 GF/core → only
	// HPC (50) and cloud (30) qualify.
	vms := []VM{{ID: "fast", Cores: 2, MinGFLOPSPerCore: 20, DurationS: 60}}
	for _, p := range []Placer{Consolidating{}, Spreading{}} {
		inf := continuum.Testbed()
		a, err := p.Place(vms, inf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		n, _ := inf.Node(a["fast"])
		if n.Kind == continuum.Edge {
			t.Errorf("%s placed QoS-20 VM on edge node %s", p.Name(), n.ID)
		}
	}
}

func TestPlacementFailureRollsBack(t *testing.T) {
	// Second VM impossible → first VM's reservation must be rolled back.
	vms := []VM{
		{ID: "ok", Cores: 4, DurationS: 1},
		{ID: "impossible", Cores: 10_000, DurationS: 1},
	}
	for _, p := range []Placer{Consolidating{}, Spreading{}} {
		inf := continuum.Testbed()
		if _, err := p.Place(vms, inf); !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("%s: err = %v", p.Name(), err)
		}
		if freeCores(inf) != inf.TotalCores() {
			t.Errorf("%s leaked reservations: %d free of %d", p.Name(), freeCores(inf), inf.TotalCores())
		}
	}
}

func TestDuplicateVMRejected(t *testing.T) {
	vms := []VM{{ID: "a", Cores: 1}, {ID: "a", Cores: 1}}
	inf := continuum.Testbed()
	if _, err := (Spreading{}).Place(vms, inf); err == nil {
		t.Error("duplicate VM accepted")
	}
	if freeCores(inf) != inf.TotalCores() {
		t.Error("leaked reservations on duplicate failure")
	}
}

func TestEvaluateDetectsViolations(t *testing.T) {
	vms := []VM{{ID: "fast", Cores: 1, MinGFLOPSPerCore: 20, DurationS: 10}}
	inf := continuum.Testbed()
	// Adversarial manual assignment to an edge node (8 GF/core).
	_ = inf.Reserve("edge-0", 1)
	rep, err := Evaluate("manual", vms, Assignment{"fast": "edge-0"}, inf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QoSViolations != 1 {
		t.Errorf("violations = %d, want 1", rep.QoSViolations)
	}
	if rep.ActiveNodes != 1 || rep.TotalPowerW <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestEvaluateUnassigned(t *testing.T) {
	vms := []VM{{ID: "x", Cores: 1}}
	if _, err := Evaluate("m", vms, Assignment{}, continuum.Testbed()); err == nil {
		t.Error("unassigned VM accepted")
	}
}

func TestReleaseAllRestores(t *testing.T) {
	vms := fleet(t, 5)
	inf := continuum.Testbed()
	a, err := Consolidating{}.Place(vms, inf)
	if err != nil {
		t.Fatal(err)
	}
	if freeCores(inf) == inf.TotalCores() {
		t.Fatal("placement reserved nothing")
	}
	if err := ReleaseAll(vms, a, inf); err != nil {
		t.Fatal(err)
	}
	if freeCores(inf) != inf.TotalCores() {
		t.Error("ReleaseAll did not restore capacity")
	}
}

// Property: on homogeneous hosts, for random feasible fleets, consolidation
// never activates more nodes nor draws more power than spreading.
func TestConsolidationNodeCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		vms := make([]VM, n)
		for i := range vms {
			vms[i] = VM{ID: fmt.Sprintf("v%d", i), Cores: 1 + rng.Intn(8), DurationS: 1}
		}
		infC, infS := homogeneousCloud(t, 12), homogeneousCloud(t, 12)
		aC, errC := Consolidating{}.Place(vms, infC)
		aS, errS := Spreading{}.Place(vms, infS)
		if errC != nil || errS != nil {
			t.Fatalf("trial %d: %v / %v", trial, errC, errS)
		}
		rC, _ := Evaluate("c", vms, aC, infC)
		rS, _ := Evaluate("s", vms, aS, infS)
		if rC.ActiveNodes > rS.ActiveNodes {
			t.Fatalf("trial %d: consolidation %d nodes > spreading %d", trial, rC.ActiveNodes, rS.ActiveNodes)
		}
		if rC.TotalPowerW > rS.TotalPowerW+1e-9 {
			t.Fatalf("trial %d: consolidation power %v > spreading %v", trial, rC.TotalPowerW, rS.TotalPowerW)
		}
	}
}

// freeCores sums the free cores of every node of inf.
func freeCores(inf *continuum.Infrastructure) int {
	n := 0
	for _, node := range inf.Nodes() {
		n += node.FreeCores()
	}
	return n
}

func testModel() *DVFSModel {
	return &DVFSModel{FMinGHz: 0.8, FMaxGHz: 3.2, StaticW: 10, DynamicW: 40}
}

func TestDVFSValidate(t *testing.T) {
	bad := []*DVFSModel{
		{FMinGHz: 0, FMaxGHz: 1, StaticW: 1, DynamicW: 1},
		{FMinGHz: 2, FMaxGHz: 1, StaticW: 1, DynamicW: 1},
		{FMinGHz: 1, FMaxGHz: 2, StaticW: -1, DynamicW: 1},
		{FMinGHz: 1, FMaxGHz: 2, StaticW: 1, DynamicW: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
	if err := testModel().Validate(); err != nil {
		t.Error(err)
	}
}

func TestDVFSPowerMonotone(t *testing.T) {
	m := testModel()
	if m.PowerW(3.2) != 50 {
		t.Errorf("P(fmax) = %v, want 50", m.PowerW(3.2))
	}
	prev := 0.0
	for f := m.FMinGHz; f <= m.FMaxGHz; f += 0.1 {
		p := m.PowerW(f)
		if p <= prev {
			t.Fatalf("power not increasing at %v", f)
		}
		prev = p
	}
	// Clamping.
	if m.PowerW(100) != m.PowerW(m.FMaxGHz) {
		t.Error("clamp high failed")
	}
	if m.PowerW(0.1) != m.PowerW(m.FMinGHz) {
		t.Error("clamp low failed")
	}
}

func TestEnergyMinimalFrequency(t *testing.T) {
	m := testModel()
	// Loose deadline → unconstrained optimum f* = cbrt(10*3.2^3/80).
	fStar := math.Cbrt(10 * 3.2 * 3.2 * 3.2 / (2 * 40))
	f, err := m.EnergyMinimalFrequency(10, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(fStar, m.FMinGHz)
	if math.Abs(f-want) > 1e-9 {
		t.Errorf("f = %v, want %v", f, want)
	}
	// Tight deadline → deadline-imposed frequency.
	f, err = m.EnergyMinimalFrequency(32, 10.0) // need 3.2 GHz
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-3.2) > 1e-9 {
		t.Errorf("deadline frequency = %v, want 3.2", f)
	}
	// Impossible deadline.
	if _, err := m.EnergyMinimalFrequency(100, 1); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	// Degenerate inputs.
	if _, err := m.EnergyMinimalFrequency(10, 0); err == nil {
		t.Error("zero deadline accepted")
	}
	if f, err := m.EnergyMinimalFrequency(0, 1); err != nil || f != m.FMinGHz {
		t.Errorf("zero work → fmin, got %v, %v", f, err)
	}
}

// Property: the optimal frequency never consumes more energy than either
// running at FMax or at the slowest deadline-feasible frequency.
func TestDVFSOptimalityProperty(t *testing.T) {
	m := testModel()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		work := 1 + rng.Float64()*100
		minTime := work / m.FMaxGHz
		deadline := minTime * (1 + rng.Float64()*5)
		fOpt, err := m.EnergyMinimalFrequency(work, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if m.RuntimeS(work, fOpt) > deadline+1e-9 {
			t.Fatalf("optimal frequency misses deadline")
		}
		eOpt := m.EnergyJ(work, fOpt)
		for _, f := range []float64{m.FMaxGHz, math.Max(work/deadline, m.FMinGHz)} {
			if m.RuntimeS(work, f) <= deadline+1e-9 {
				if e := m.EnergyJ(work, f); e < eOpt-1e-6 {
					t.Fatalf("frequency %v beats 'optimal' %v: %v < %v", f, fOpt, e, eOpt)
				}
			}
		}
	}
}

func TestRaceToIdleComparison(t *testing.T) {
	m := testModel()
	work, deadline := 32.0, 40.0
	fOpt, err := m.EnergyMinimalFrequency(work, deadline)
	if err != nil {
		t.Fatal(err)
	}
	eDVFS := m.EnergyJ(work, fOpt)
	eRace, err := m.RaceToIdleEnergyJ(work, deadline)
	if err != nil {
		t.Fatal(err)
	}
	// With cubic dynamic power and static idle cost, DVFS at the optimum
	// must not lose to race-to-idle in this model.
	if eDVFS > eRace+1e-9 {
		t.Errorf("DVFS %v worse than race-to-idle %v", eDVFS, eRace)
	}
	if _, err := m.RaceToIdleEnergyJ(1000, 1); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v", err)
	}
}

func TestCarbonFootprint(t *testing.T) {
	p := CarbonProfile{PUE: 1.5, IntensityGPerKWh: 400}
	g, err := p.FootprintG(3.6e6) // 1 kWh
	if err != nil || math.Abs(g-600) > 1e-9 {
		t.Errorf("footprint = %v, %v; want 600 g", g, err)
	}
	if _, err := p.FootprintG(-1); err == nil {
		t.Error("negative energy accepted")
	}
	if _, err := (CarbonProfile{PUE: 0.9, IntensityGPerKWh: 1}).FootprintG(1); err == nil {
		t.Error("PUE < 1 accepted")
	}
	if tm := TreeMonths(917); math.Abs(tm-1) > 1e-9 {
		t.Errorf("tree months = %v", tm)
	}
}

func TestRankGreen500(t *testing.T) {
	systems := []SystemRating{
		{Name: "leonardo", GFLOPS: 238e6, PowerW: 7.5e6},
		{Name: "edge-box", GFLOPS: 40, PowerW: 25},
		{Name: "old-cluster", GFLOPS: 1e5, PowerW: 2e5},
	}
	ranked, err := RankGreen500(systems)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "leonardo" {
		t.Errorf("top = %s", ranked[0].Name)
	}
	if ranked[2].Name != "old-cluster" {
		t.Errorf("bottom = %s", ranked[2].Name)
	}
	for _, r := range ranked {
		if r.GFLOPSPerW <= 0 {
			t.Errorf("%s efficiency = %v", r.Name, r.GFLOPSPerW)
		}
	}
	if _, err := RankGreen500([]SystemRating{{Name: "x", PowerW: 0}}); err == nil {
		t.Error("zero power accepted")
	}
}
