package orchestrator

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/continuum"
)

func twoClusters(t *testing.T) (*Cluster, *Cluster) {
	t.Helper()
	a := NewCluster("turin", continuum.EdgeCloudTestbed())
	b := NewCluster("bologna", continuum.Testbed())
	return a, b
}

func TestPeeringLifecycle(t *testing.T) {
	a, b := twoClusters(t)
	if err := a.Peer(b, 64); err != nil {
		t.Fatal(err)
	}
	if err := a.Peer(a, 10); err == nil {
		t.Error("self-peering accepted")
	}
	if err := a.Peer(b, 0); err == nil {
		t.Error("zero share accepted")
	}
	// Re-peering may not shrink the share below what is borrowed.
	if _, err := a.Borrow("bologna", 40); err != nil {
		t.Fatal(err)
	}
	if err := a.Peer(b, 30); err == nil {
		t.Error("share shrunk below borrowed cores")
	}
}

func TestBorrowAndReturn(t *testing.T) {
	a, b := twoClusters(t)
	if err := a.Peer(b, 80); err != nil {
		t.Fatal(err)
	}
	before := freeCores(b.Infra)
	grants, err := a.Borrow("bologna", 70)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, k := range grants {
		total += k
	}
	if total != 70 {
		t.Errorf("granted %d, want 70", total)
	}
	if freeCores(b.Infra) != before-70 {
		t.Errorf("provider free = %d, want %d", freeCores(b.Infra), before-70)
	}
	if a.peers["bologna"].borrowed != 70 {
		t.Errorf("borrowed = %d", a.peers["bologna"].borrowed)
	}
	// Cap enforcement.
	if _, err := a.Borrow("bologna", 20); err == nil {
		t.Error("borrow beyond share cap accepted")
	}
	if err := a.Return("bologna", grants); err != nil {
		t.Fatal(err)
	}
	if freeCores(b.Infra) != before {
		t.Errorf("cores not fully returned: %d vs %d", freeCores(b.Infra), before)
	}
	if a.peers["bologna"].borrowed != 0 {
		t.Errorf("borrowed after return = %d", a.peers["bologna"].borrowed)
	}
}

func TestBorrowErrors(t *testing.T) {
	a, b := twoClusters(t)
	if _, err := a.Borrow("bologna", 10); err == nil {
		t.Error("borrow without peering accepted")
	}
	_ = a.Peer(b, 10000)
	if _, err := a.Borrow("bologna", 0); err == nil {
		t.Error("zero borrow accepted")
	}
	// More than the provider physically has.
	if _, err := a.Borrow("bologna", freeCores(b.Infra)+1); err == nil {
		t.Error("over-physical borrow accepted")
	}
	// State untouched after failure.
	if a.peers["bologna"].borrowed != 0 || freeCores(b.Infra) != b.Infra.TotalCores() {
		t.Error("failed borrow leaked reservations")
	}
}

func TestBlueprintCompileAndSimulate(t *testing.T) {
	js := `{
	  "name": "hpc-app",
	  "version": "1.0",
	  "components": [
	    {"name": "prep", "type": "job", "gflop": 100, "output_mb": 50},
	    {"name": "solve", "type": "job", "gflop": 4000, "cores": 32, "tier": "hpc", "depends_on": ["prep"]},
	    {"name": "viz", "type": "container", "gflop": 50, "tier": "cloud", "depends_on": ["solve"]}
	  ],
	  "policies": {"placement": "heft"}
	}`
	bp, err := ParseBlueprint(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	wf, err := bp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if wf.Len() != 3 {
		t.Errorf("steps = %d", wf.Len())
	}
	pol, err := bp.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "heft" {
		t.Errorf("policy = %s", pol.Name())
	}
	inf := continuum.Testbed()
	p, err := pol.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(wf, inf, p, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	solveNode, _ := inf.Node(s.Placement["solve"])
	if solveNode.Kind != continuum.HPC {
		t.Errorf("solve placed on %s, pinned to hpc", solveNode.Kind)
	}
}

func TestBlueprintValidation(t *testing.T) {
	cases := []string{
		`{"components":[{"name":"a"}]}`,                                      // no name
		`{"name":"x","components":[]}`,                                       // no components
		`{"name":"x","components":[{"name":""}]}`,                            // unnamed component
		`{"name":"x","components":[{"name":"a"},{"name":"a"}]}`,              // duplicate
		`{"name":"x","components":[{"name":"a","depends_on":["ghost"]}]}`,    // dangling
		`{"name":"x","components":[{"name":"a","tier":"space"}]}`,            // bad tier
		`{"name":"x","components":[{"name":"a","depends_on":["a"]}]}`,        // self-cycle (caught at compile)
		`{"name":"x","components":[{"name":"a"}],"policies":{"bogus":true}}`, // unknown field
	}
	for i, js := range cases {
		bp, err := ParseBlueprint(strings.NewReader(js))
		if err == nil {
			if _, err = bp.Compile(); err == nil {
				t.Errorf("case %d accepted: %s", i, js)
			}
		}
	}
}

func TestBlueprintUnknownPolicy(t *testing.T) {
	bp := &Blueprint{Name: "x", Components: []Component{{Name: "a"}}}
	bp.Policies.Placement = "magic"
	if _, err := bp.Policy(); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBlueprintRoundTrip(t *testing.T) {
	bp := &Blueprint{Name: "rt", Components: []Component{{Name: "a", GFlop: 10}, {Name: "b", DependsOn: []string{"a"}}}}
	data, err := json.Marshal(bp)
	if err != nil {
		t.Fatal(err)
	}
	bp2, err := ParseBlueprint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if bp2.Name != "rt" || len(bp2.Components) != 2 {
		t.Error("round trip lost data")
	}
}
