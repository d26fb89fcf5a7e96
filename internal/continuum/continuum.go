// Package continuum models the Computing Continuum the paper targets —
// hybrid HPC + Cloud + Edge execution environments (Balouek-Thomert et al.,
// IJHPCA 2019) — as a deterministic simulation substrate.
//
// The paper's subject systems (orchestrators, FaaS runtimes, energy-aware
// placers) all reason about the same three quantities: compute capacity,
// network distance, and power. This package provides those quantities:
//
//   - Node: a compute location with cores, speed and a linear power model;
//   - Link/Topology: latency and bandwidth between locations;
//   - Infrastructure: a named set of nodes plus a topology, with capacity
//     reservation bookkeeping;
//   - Clock/EventQueue (engine.go): a discrete-event simulation core.
//
// All times are simulated seconds (float64); all data sizes are bytes;
// energy is joules. Nothing reads the wall clock.
package continuum

import (
	"errors"
	"fmt"
	"sort"
)

// Kind is the class of an execution location.
type Kind string

// The three tiers of the Computing Continuum.
const (
	HPC   Kind = "hpc"
	Cloud Kind = "cloud"
	Edge  Kind = "edge"
)

// Valid reports whether k is a known tier.
func (k Kind) Valid() bool { return k == HPC || k == Cloud || k == Edge }

// Node is one execution location.
type Node struct {
	ID     string
	Kind   Kind
	Region string // geographic region, used for default link parameters

	Cores         int     // total cores
	GFLOPSPerCore float64 // per-core sustained compute speed
	MemoryGB      float64

	// Linear power model: P(u) = IdleW + u*(MaxW-IdleW), u = utilization.
	IdleW float64
	MaxW  float64

	// CostPerCoreHour is the renting price used by cost-aware placement.
	CostPerCoreHour float64

	reserved int // cores currently reserved
}

// Validate checks node parameters.
func (n *Node) Validate() error {
	if n.ID == "" {
		return errors.New("continuum: node with empty ID")
	}
	if !n.Kind.Valid() {
		return fmt.Errorf("continuum: node %s has invalid kind %q", n.ID, n.Kind)
	}
	if n.Cores <= 0 {
		return fmt.Errorf("continuum: node %s has %d cores", n.ID, n.Cores)
	}
	if n.GFLOPSPerCore <= 0 {
		return fmt.Errorf("continuum: node %s has non-positive speed", n.ID)
	}
	if n.IdleW < 0 || n.MaxW < n.IdleW {
		return fmt.Errorf("continuum: node %s has inconsistent power model (idle %v, max %v)", n.ID, n.IdleW, n.MaxW)
	}
	return nil
}

// FreeCores returns the number of unreserved cores.
func (n *Node) FreeCores() int { return n.Cores - n.reserved }

// ReservedCores returns the number of reserved cores.
func (n *Node) ReservedCores() int { return n.reserved }

// Utilization returns the reserved fraction of cores in [0,1].
func (n *Node) Utilization() float64 {
	if n.Cores == 0 {
		return 0
	}
	return float64(n.reserved) / float64(n.Cores)
}

// ExecSeconds returns the time to execute work gflop on cores cores of this
// node, assuming perfect intra-node scaling (callers wanting Amdahl effects
// apply them on top).
func (n *Node) ExecSeconds(gflop float64, cores int) (float64, error) {
	if cores <= 0 || cores > n.Cores {
		return 0, fmt.Errorf("continuum: node %s: invalid core request %d of %d", n.ID, cores, n.Cores)
	}
	if gflop < 0 {
		return 0, fmt.Errorf("continuum: negative work %v", gflop)
	}
	return gflop / (n.GFLOPSPerCore * float64(cores)), nil
}

// Link carries latency and bandwidth between two locations.
type Link struct {
	LatencyS     float64 // one-way latency in seconds
	BandwidthBps float64 // bytes per second
}

// TransferSeconds returns the time to ship size bytes over the link.
func (l Link) TransferSeconds(size float64) float64 {
	if size <= 0 {
		return l.LatencyS
	}
	return l.LatencyS + size/l.BandwidthBps
}

// Topology holds region-pair links. Lookups fall back from the region pair
// to a default. Same-node transfers are free.
type Topology struct {
	regionLinks map[[2]string]Link
	defaultLink Link
}

// NewTopology returns a topology with the given default link.
func NewTopology(def Link) *Topology {
	return &Topology{
		regionLinks: map[[2]string]Link{},
		defaultLink: def,
	}
}

// SetRegionLink sets the link between two regions (both directions).
func (t *Topology) SetRegionLink(a, b string, l Link) {
	t.regionLinks[[2]string{a, b}] = l
	t.regionLinks[[2]string{b, a}] = l
}

// LinkBetween resolves the link from node a to node b.
func (t *Topology) LinkBetween(a, b *Node) Link {
	if a.ID == b.ID {
		return Link{} // zero latency, infinite-bandwidth treated as free
	}
	if l, ok := t.regionLinks[[2]string{a.Region, b.Region}]; ok {
		return l
	}
	return t.defaultLink
}

// TransferSeconds returns the time to move size bytes from a to b.
func (t *Topology) TransferSeconds(a, b *Node, size float64) float64 {
	if a.ID == b.ID {
		return 0
	}
	return t.LinkBetween(a, b).TransferSeconds(size)
}

// Infrastructure is a named set of nodes plus a topology.
type Infrastructure struct {
	nodes    map[string]*Node
	order    []string
	Topology *Topology
}

// NewInfrastructure returns an empty infrastructure with a default topology
// (50 ms latency, 100 MB/s) so tests can start simple.
func NewInfrastructure() *Infrastructure {
	return &Infrastructure{
		nodes:    map[string]*Node{},
		Topology: NewTopology(Link{LatencyS: 0.05, BandwidthBps: 100e6}),
	}
}

// AddNode validates and registers a node. The node is stored by pointer;
// callers should not reuse the value.
func (inf *Infrastructure) AddNode(n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if _, dup := inf.nodes[n.ID]; dup {
		return fmt.Errorf("continuum: duplicate node %q", n.ID)
	}
	inf.nodes[n.ID] = n
	inf.order = append(inf.order, n.ID)
	return nil
}

// Node returns a node by ID.
func (inf *Infrastructure) Node(id string) (*Node, error) {
	n, ok := inf.nodes[id]
	if !ok {
		return nil, fmt.Errorf("continuum: unknown node %q", id)
	}
	return n, nil
}

// Nodes returns all nodes in insertion order.
func (inf *Infrastructure) Nodes() []*Node {
	out := make([]*Node, 0, len(inf.order))
	for _, id := range inf.order {
		out = append(out, inf.nodes[id])
	}
	return out
}

// NodesByKind returns the nodes of one tier, in insertion order.
func (inf *Infrastructure) NodesByKind(k Kind) []*Node {
	var out []*Node
	for _, n := range inf.Nodes() {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Reserve reserves cores on node id. It fails without side effects if the
// node lacks free capacity.
func (inf *Infrastructure) Reserve(id string, cores int) error {
	n, err := inf.Node(id)
	if err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("continuum: reserve of %d cores", cores)
	}
	if n.FreeCores() < cores {
		return fmt.Errorf("continuum: node %s has %d free cores, requested %d", id, n.FreeCores(), cores)
	}
	n.reserved += cores
	return nil
}

// Release returns cores to node id.
func (inf *Infrastructure) Release(id string, cores int) error {
	n, err := inf.Node(id)
	if err != nil {
		return err
	}
	if cores <= 0 || cores > n.reserved {
		return fmt.Errorf("continuum: release of %d cores (reserved %d) on %s", cores, n.reserved, id)
	}
	n.reserved -= cores
	return nil
}

// TotalCores returns the aggregate core count.
func (inf *Infrastructure) TotalCores() int {
	t := 0
	for _, n := range inf.Nodes() {
		t += n.Cores
	}
	return t
}

// SortedByFreeCores returns node IDs ordered by free cores descending
// (ties by ID, for determinism).
func (inf *Infrastructure) SortedByFreeCores() []string {
	ids := append([]string(nil), inf.order...)
	sort.Slice(ids, func(i, j int) bool {
		a, b := inf.nodes[ids[i]], inf.nodes[ids[j]]
		if a.FreeCores() != b.FreeCores() {
			return a.FreeCores() > b.FreeCores()
		}
		return ids[i] < ids[j]
	})
	return ids
}
