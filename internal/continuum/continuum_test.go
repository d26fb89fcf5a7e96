package continuum

import (
	"math"
	"testing"
	"testing/quick"
)

func validNode(id string) *Node {
	return &Node{
		ID: id, Kind: Cloud, Region: "r",
		Cores: 8, GFLOPSPerCore: 10, MemoryGB: 32,
		IdleW: 100, MaxW: 300, CostPerCoreHour: 0.05,
	}
}

func TestNodeValidate(t *testing.T) {
	if err := validNode("a").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Node{
		{},
		{ID: "x", Kind: "moon", Cores: 1, GFLOPSPerCore: 1},
		{ID: "x", Kind: Edge, Cores: 0, GFLOPSPerCore: 1},
		{ID: "x", Kind: Edge, Cores: 1, GFLOPSPerCore: 0},
		{ID: "x", Kind: Edge, Cores: 1, GFLOPSPerCore: 1, IdleW: 10, MaxW: 5},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad node %d accepted", i)
		}
	}
}

func TestExecSeconds(t *testing.T) {
	n := validNode("a") // 10 GFLOPS/core
	d, err := n.ExecSeconds(100, 2)
	if err != nil || d != 5 {
		t.Errorf("exec = %v, %v; want 5s", d, err)
	}
	if _, err := n.ExecSeconds(100, 0); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := n.ExecSeconds(100, 9); err == nil {
		t.Error("too many cores accepted")
	}
	if _, err := n.ExecSeconds(-1, 1); err == nil {
		t.Error("negative work accepted")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyS: 0.01, BandwidthBps: 100}
	if got := l.TransferSeconds(1000); math.Abs(got-10.01) > 1e-9 {
		t.Errorf("transfer = %v, want 10.01", got)
	}
	if got := l.TransferSeconds(0); got != 0.01 {
		t.Errorf("zero-size transfer = %v, want latency only", got)
	}
}

func TestTopologyFallbacks(t *testing.T) {
	topo := NewTopology(Link{LatencyS: 1, BandwidthBps: 1})
	a, b := validNode("a"), validNode("b")
	b.Region = "s"
	// Default fallback.
	if got := topo.LinkBetween(a, b).LatencyS; got != 1 {
		t.Errorf("default latency = %v", got)
	}
	// Region fallback.
	topo.SetRegionLink("r", "s", Link{LatencyS: 0.5, BandwidthBps: 10})
	if got := topo.LinkBetween(a, b).LatencyS; got != 0.5 {
		t.Errorf("region latency = %v", got)
	}
	// Symmetry.
	if got := topo.LinkBetween(b, a).LatencyS; got != 0.5 {
		t.Errorf("reverse latency = %v", got)
	}
	// Self-transfer free.
	if got := topo.TransferSeconds(a, a, 1e9); got != 0 {
		t.Errorf("self transfer = %v", got)
	}
}

func TestInfrastructureReserveRelease(t *testing.T) {
	inf := NewInfrastructure()
	if err := inf.AddNode(validNode("a")); err != nil {
		t.Fatal(err)
	}
	if err := inf.AddNode(validNode("a")); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := inf.Reserve("a", 5); err != nil {
		t.Fatal(err)
	}
	n, _ := inf.Node("a")
	if n.FreeCores() != 3 || n.Utilization() != 5.0/8 {
		t.Errorf("free=%d util=%v", n.FreeCores(), n.Utilization())
	}
	if err := inf.Reserve("a", 4); err == nil {
		t.Error("over-reservation accepted")
	}
	if err := inf.Release("a", 6); err == nil {
		t.Error("over-release accepted")
	}
	if err := inf.Release("a", 5); err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 8 {
		t.Errorf("free after release = %d", n.FreeCores())
	}
	if err := inf.Reserve("ghost", 1); err == nil {
		t.Error("reserve on unknown node accepted")
	}
	if err := inf.Reserve("a", 0); err == nil {
		t.Error("zero reserve accepted")
	}
}

// Property: any sequence of valid reservations and releases conserves cores.
func TestReservationConservation(t *testing.T) {
	f := func(ops []int8) bool {
		inf := NewInfrastructure()
		_ = inf.AddNode(validNode("a"))
		n, _ := inf.Node("a")
		outstanding := 0
		for _, op := range ops {
			k := int(op%4) + 1
			if k < 1 {
				k = 1
			}
			if op >= 0 {
				if inf.Reserve("a", k) == nil {
					outstanding += k
				}
			} else {
				if inf.Release("a", k) == nil {
					outstanding -= k
				}
			}
			if n.FreeCores()+n.ReservedCores() != n.Cores {
				return false
			}
			if n.ReservedCores() != outstanding {
				return false
			}
			if n.FreeCores() < 0 || n.ReservedCores() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTestbedPresets(t *testing.T) {
	inf := Testbed()
	if got := len(inf.Nodes()); got != 10 {
		t.Errorf("testbed nodes = %d, want 10", got)
	}
	if got := len(inf.NodesByKind(HPC)); got != 2 {
		t.Errorf("hpc nodes = %d", got)
	}
	if got := len(inf.NodesByKind(Edge)); got != 5 {
		t.Errorf("edge nodes = %d", got)
	}
	if inf.TotalCores() != 2*64+3*32+5*4 {
		t.Errorf("total cores = %d", inf.TotalCores())
	}
	// HPC↔edge must be the slowest path.
	hpc := inf.NodesByKind(HPC)[0]
	edge := inf.NodesByKind(Edge)[0]
	cloud := inf.NodesByKind(Cloud)[0]
	lhe := inf.Topology.LinkBetween(hpc, edge).LatencyS
	lhc := inf.Topology.LinkBetween(hpc, cloud).LatencyS
	if lhe <= lhc {
		t.Errorf("hpc-edge latency %v should exceed hpc-cloud %v", lhe, lhc)
	}
	ec := EdgeCloudTestbed()
	if got := len(ec.Nodes()); got != 6 {
		t.Errorf("edge-cloud nodes = %d, want 6", got)
	}
	if got := len(ec.NodesByKind(HPC)); got != 0 {
		t.Errorf("edge-cloud should have no HPC nodes, got %d", got)
	}
}

func TestSortedByFreeCores(t *testing.T) {
	inf := Testbed()
	_ = inf.Reserve("hpc-0", 64)
	ids := inf.SortedByFreeCores()
	if ids[0] != "hpc-1" {
		t.Errorf("first = %s, want hpc-1", ids[0])
	}
	last := ids[len(ids)-1]
	if last != "hpc-0" && inf.nodes[last].FreeCores() > 0 {
		t.Errorf("last = %s with %d free", last, inf.nodes[last].FreeCores())
	}
}
