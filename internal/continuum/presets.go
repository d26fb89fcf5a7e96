package continuum

// Presets build the reference infrastructures used by examples, tests and
// benchmarks. The numbers are representative of the environments the paper
// discusses: a Leonardo-class HPC partition, commercial cloud regions, and
// constrained edge gateways. Only relative magnitudes matter for the
// reproduced experiments.

// Testbed returns a three-tier continuum:
//
//   - 2 HPC nodes   (64 cores, fast, high idle power, low cost/core not rented)
//   - 3 Cloud nodes (32 cores, medium speed, medium power, rented)
//   - 5 Edge nodes  (4 cores, slow, very low power, close to the data)
//
// plus a topology with realistic tier-to-tier latencies and bandwidths.
func Testbed() *Infrastructure {
	inf := NewInfrastructure()
	add := func(n *Node) {
		if err := inf.AddNode(n); err != nil {
			panic(err) // preset data is static; failure is a programmer error
		}
	}
	for i := 0; i < 2; i++ {
		add(&Node{
			ID: nodeID("hpc", i), Kind: HPC, Region: "hpc-centre",
			Cores: 64, GFLOPSPerCore: 50, MemoryGB: 512,
			IdleW: 400, MaxW: 1200, CostPerCoreHour: 0.02,
		})
	}
	for i := 0; i < 3; i++ {
		add(&Node{
			ID: nodeID("cloud", i), Kind: Cloud, Region: "cloud-region",
			Cores: 32, GFLOPSPerCore: 30, MemoryGB: 128,
			IdleW: 150, MaxW: 450, CostPerCoreHour: 0.08,
		})
	}
	for i := 0; i < 5; i++ {
		add(&Node{
			ID: nodeID("edge", i), Kind: Edge, Region: "edge-site",
			Cores: 4, GFLOPSPerCore: 8, MemoryGB: 8,
			IdleW: 5, MaxW: 25, CostPerCoreHour: 0.01,
		})
	}
	t := inf.Topology
	// Intra-region links.
	t.SetRegionLink("hpc-centre", "hpc-centre", Link{LatencyS: 0.0005, BandwidthBps: 10e9})
	t.SetRegionLink("cloud-region", "cloud-region", Link{LatencyS: 0.001, BandwidthBps: 1e9})
	t.SetRegionLink("edge-site", "edge-site", Link{LatencyS: 0.002, BandwidthBps: 100e6})
	// Cross-tier links.
	t.SetRegionLink("hpc-centre", "cloud-region", Link{LatencyS: 0.015, BandwidthBps: 500e6})
	t.SetRegionLink("cloud-region", "edge-site", Link{LatencyS: 0.030, BandwidthBps: 50e6})
	t.SetRegionLink("hpc-centre", "edge-site", Link{LatencyS: 0.045, BandwidthBps: 25e6})
	return inf
}

// EdgeCloudTestbed returns a two-tier infrastructure (no HPC) used by the
// FaaS experiments: 4 edge nodes near users and 2 cloud nodes behind a WAN.
func EdgeCloudTestbed() *Infrastructure {
	inf := NewInfrastructure()
	add := func(n *Node) {
		if err := inf.AddNode(n); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		add(&Node{
			ID: nodeID("edge", i), Kind: Edge, Region: "edge-site",
			Cores: 8, GFLOPSPerCore: 10, MemoryGB: 16,
			IdleW: 8, MaxW: 40, CostPerCoreHour: 0.01,
		})
	}
	for i := 0; i < 2; i++ {
		add(&Node{
			ID: nodeID("cloud", i), Kind: Cloud, Region: "cloud-region",
			Cores: 64, GFLOPSPerCore: 30, MemoryGB: 256,
			IdleW: 200, MaxW: 600, CostPerCoreHour: 0.08,
		})
	}
	t := inf.Topology
	t.SetRegionLink("edge-site", "edge-site", Link{LatencyS: 0.002, BandwidthBps: 100e6})
	t.SetRegionLink("cloud-region", "cloud-region", Link{LatencyS: 0.001, BandwidthBps: 1e9})
	t.SetRegionLink("edge-site", "cloud-region", Link{LatencyS: 0.040, BandwidthBps: 50e6})
	return inf
}

func nodeID(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i))
}
