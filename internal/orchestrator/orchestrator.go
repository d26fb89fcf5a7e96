// Package orchestrator implements hybrid workflow orchestration in the
// Computing Continuum — the research direction with the most tools (7) and
// the most integration votes (11) in the paper. It models what StreamFlow,
// TORCH, INDIGO and Liqo provide: mapping workflow steps onto heterogeneous
// execution locations, planning deployments from blueprints, and federating
// clusters.
//
// The package separates three concerns:
//
//   - placement policies (this file): map each workflow step to a node;
//   - schedule simulation (simulate.go): execute a placement on a simulated
//     infrastructure, yielding makespan, energy, cost and data-movement;
//   - federation (federation.go): Liqo-style multi-cluster peering and
//     TOSCA-style blueprints (blueprint.go).
package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/continuum"
	"repro/internal/rng"
	"repro/internal/workflow"
)

// Placement maps step IDs to node IDs.
type Placement map[string]string

// Policy chooses a node for every step of a workflow.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Place computes a placement. Implementations must respect step tier
	// pins and node core capacities (a step's Cores must fit the node).
	Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error)
}

// candidates appends to dst[:0] the nodes a step may run on:
// tier-compatible and with enough total cores and memory. Policies pass the
// previous step's slice back in, so a placement allocates it once.
func candidates(dst []*continuum.Node, s *workflow.Step, inf *continuum.Infrastructure) []*continuum.Node {
	out := dst[:0]
	for _, n := range inf.Nodes() {
		if s.Tier != "" && string(n.Kind) != s.Tier {
			continue
		}
		if n.Cores < s.Cores || n.MemoryGB < s.MemoryGB {
			continue
		}
		out = append(out, n)
	}
	return out
}

// ErrUnplaceable is returned when some step has no feasible node.
var ErrUnplaceable = errors.New("orchestrator: step has no feasible node")

func unplaceable(s *workflow.Step) error {
	return fmt.Errorf("%w: step %q (tier %q, %d cores)", ErrUnplaceable, s.ID, s.Tier, s.Cores)
}

// Validate checks that a placement is complete and feasible.
func (p Placement) Validate(wf *workflow.Workflow, inf *continuum.Infrastructure) error {
	for _, s := range wf.Steps() {
		nodeID, ok := p[s.ID]
		if !ok {
			return fmt.Errorf("orchestrator: step %q unplaced", s.ID)
		}
		n, err := inf.Node(nodeID)
		if err != nil {
			return err
		}
		if s.Tier != "" && string(n.Kind) != s.Tier {
			return fmt.Errorf("orchestrator: step %q pinned to tier %q placed on %q (%s)",
				s.ID, s.Tier, n.ID, n.Kind)
		}
		if n.Cores < s.Cores {
			return fmt.Errorf("orchestrator: step %q needs %d cores, node %q has %d",
				s.ID, s.Cores, n.ID, n.Cores)
		}
		if n.MemoryGB < s.MemoryGB {
			return fmt.Errorf("orchestrator: step %q needs %.1f GB, node %q has %.1f",
				s.ID, s.MemoryGB, n.ID, n.MemoryGB)
		}
	}
	return nil
}

// RoundRobin cycles through feasible nodes in insertion order — the naive
// baseline.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements Policy.
func (RoundRobin) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	p := Placement{}
	i := 0
	var cand []*continuum.Node
	for _, s := range wf.Steps() {
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		p[s.ID] = cand[i%len(cand)].ID
		i++
	}
	return p, nil
}

// Random places each step on a uniformly random feasible node. The rng
// source makes runs reproducible.
type Random struct{ Rng *rng.Rand }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Place implements Policy.
func (r Random) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	src := r.Rng
	if src == nil {
		src = rng.New(1)
	}
	p := Placement{}
	var cand []*continuum.Node
	for _, s := range wf.Steps() {
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		p[s.ID] = cand[src.Intn(len(cand))].ID
	}
	return p, nil
}

// DataLocal greedily minimizes estimated transfer+compute time per step in
// topological order: for each step it picks the node minimizing
// (max transfer time from placed dependencies) + (compute time). This is
// the StreamFlow-style locality heuristic.
type DataLocal struct{}

// Name implements Policy.
func (DataLocal) Name() string { return "data-local" }

// Place implements Policy.
func (DataLocal) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	topo, err := wf.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := Placement{}
	var cand []*continuum.Node
	for _, id := range topo {
		s, _ := wf.Step(id)
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		bestCost := math.Inf(1)
		var best *continuum.Node
		for _, n := range cand {
			exec, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			var xfer float64
			for _, depID := range s.After {
				dep, _ := wf.Step(depID)
				depNode, err := inf.Node(p[depID])
				if err != nil {
					return nil, err
				}
				t := inf.Topology.TransferSeconds(depNode, n, dep.OutputBytes)
				if t > xfer {
					xfer = t
				}
			}
			cost := xfer + exec
			if cost < bestCost || (cost == bestCost && best != nil && n.ID < best.ID) {
				bestCost = cost
				best = n
			}
		}
		p[id] = best.ID
	}
	return p, nil
}

// CostAware minimizes rental cost (core-hours × price), breaking ties by
// compute time. It models the BDMaaS+ pricing-driven optimization.
type CostAware struct{}

// Name implements Policy.
func (CostAware) Name() string { return "cost-aware" }

// Place implements Policy.
func (CostAware) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	p := Placement{}
	var cand []*continuum.Node
	for _, s := range wf.Steps() {
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		best := cand[0]
		bestCost := math.Inf(1)
		bestExec := math.Inf(1)
		for _, n := range cand {
			exec, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			cost := float64(s.Cores) * exec / 3600 * n.CostPerCoreHour
			if cost < bestCost || (cost == bestCost && exec < bestExec) {
				best, bestCost, bestExec = n, cost, exec
			}
		}
		p[s.ID] = best.ID
	}
	return p, nil
}

// EnergyAware minimizes estimated dynamic energy per step and prefers
// consolidating onto already-used nodes to avoid waking new ones — the
// PESOS-style objective applied to workflow placement.
type EnergyAware struct{}

// Name implements Policy.
func (EnergyAware) Name() string { return "energy-aware" }

// Place implements Policy.
func (EnergyAware) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	p := Placement{}
	used := map[string]bool{}
	var cand []*continuum.Node
	for _, s := range wf.Steps() {
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		best := cand[0]
		bestScore := math.Inf(1)
		for _, n := range cand {
			exec, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			util := float64(s.Cores) / float64(n.Cores)
			dynamic := (n.MaxW - n.IdleW) * util * exec
			wake := 0.0
			if !used[n.ID] {
				// Penalize waking an idle node by its idle draw over the
				// step duration — a proxy for keeping it powered.
				wake = n.IdleW * exec
			}
			score := dynamic + wake
			if score < bestScore || (score == bestScore && n.ID < best.ID) {
				best, bestScore = n, score
			}
		}
		p[s.ID] = best.ID
		used[best.ID] = true
	}
	return p, nil
}

// HEFT implements a Heterogeneous-Earliest-Finish-Time list scheduler: steps
// are ranked by upward rank (critical-path-to-exit) and greedily assigned to
// the node giving the earliest estimated finish, accounting for node
// availability and dependency transfers. It is the strongest makespan
// heuristic here and the reference point for the ablation benches.
type HEFT struct{}

// Name implements Policy.
func (HEFT) Name() string { return "heft" }

// Place implements Policy.
func (HEFT) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	nodes := inf.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("orchestrator: empty infrastructure")
	}

	// Mean execution time per step across its candidates (HEFT rank basis).
	meanExec := map[string]float64{}
	var cand []*continuum.Node
	for _, s := range wf.Steps() {
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		var sum float64
		for _, n := range cand {
			e, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			sum += e
		}
		meanExec[s.ID] = sum / float64(len(cand))
	}

	// Upward rank via reverse topological order.
	topo, err := wf.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := map[string]float64{}
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		var maxChild float64
		for _, dep := range wf.Dependents(id) {
			if rank[dep] > maxChild {
				maxChild = rank[dep]
			}
		}
		rank[id] = meanExec[id] + maxChild
	}
	order := append([]string(nil), topo...)
	sort.SliceStable(order, func(i, j int) bool {
		if rank[order[i]] != rank[order[j]] {
			return rank[order[i]] > rank[order[j]]
		}
		return order[i] < order[j]
	})

	// Greedy earliest-finish assignment with single-step-at-a-time node
	// availability (the classic HEFT processor model).
	avail := map[string]float64{}
	finish := map[string]float64{}
	p := Placement{}
	for _, id := range order {
		s, _ := wf.Step(id)
		bestFinish := math.Inf(1)
		var best *continuum.Node
		cand = candidates(cand, s, inf)
		for _, n := range cand {
			exec, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			ready := 0.0
			for _, depID := range s.After {
				depNode, err := inf.Node(p[depID])
				if err != nil {
					// Dependency not yet placed (possible under rank order
					// only when ranks tie oddly); fall back to its mean.
					ready = math.Max(ready, finish[depID])
					continue
				}
				dep, _ := wf.Step(depID)
				arrive := finish[depID] + inf.Topology.TransferSeconds(depNode, n, dep.OutputBytes)
				ready = math.Max(ready, arrive)
			}
			start := math.Max(ready, avail[n.ID])
			f := start + exec
			if f < bestFinish || (f == bestFinish && best != nil && n.ID < best.ID) {
				bestFinish, best = f, n
			}
		}
		if best == nil {
			return nil, unplaceable(s)
		}
		p[id] = best.ID
		avail[best.ID] = bestFinish
		finish[id] = bestFinish
	}
	return p, nil
}

// Policies returns the built-in policies in a stable order.
func Policies(r *rng.Rand) []Policy {
	return []Policy{Random{Rng: r}, RoundRobin{}, DataLocal{}, CostAware{}, EnergyAware{}, HEFT{}}
}
