package orchestrator

import (
	"fmt"
	"math"

	"repro/internal/continuum"
	"repro/internal/workflow"
)

// EnergyDeadline implements the deadline-constrained energy-minimizing
// scheduling of the literature the paper cites for energy-efficient
// workflow execution (Bousselmi et al. 2016; Cao et al. 2014): first the
// HEFT makespan M is computed as the performance reference, then steps are
// placed greedily (in HEFT rank order) on the node with the smallest
// marginal energy among those whose estimated finish keeps the schedule
// within Slack × M. With Slack = 1 it degenerates to (approximately) HEFT;
// large Slack buys energy with time.
type EnergyDeadline struct {
	// Slack multiplies the HEFT makespan into the deadline (≥ 1).
	Slack float64
}

// Name implements Policy.
func (p EnergyDeadline) Name() string { return fmt.Sprintf("energy-deadline(%.1fx)", p.Slack) }

// Place implements Policy.
func (p EnergyDeadline) Place(wf *workflow.Workflow, inf *continuum.Infrastructure) (Placement, error) {
	if p.Slack < 1 {
		return nil, fmt.Errorf("orchestrator: slack %v < 1", p.Slack)
	}
	// Reference: HEFT estimated makespan on this infrastructure.
	heftPlacement, err := HEFT{}.Place(wf, inf)
	if err != nil {
		return nil, err
	}
	refSched, err := Simulate(wf, inf, heftPlacement, "heft-reference")
	if err != nil {
		return nil, err
	}
	deadline := p.Slack * refSched.Makespan

	// Rank order as in HEFT.
	topo, err := wf.TopoOrder()
	if err != nil {
		return nil, err
	}

	avail := map[string]float64{}
	finish := map[string]float64{}
	placement := Placement{}
	var cand []*continuum.Node
	for _, id := range topo {
		s, _ := wf.Step(id)
		cand = candidates(cand, s, inf)
		if len(cand) == 0 {
			return nil, unplaceable(s)
		}
		type option struct {
			node   *continuum.Node
			finish float64
			energy float64
		}
		var opts []option
		for _, n := range cand {
			exec, err := n.ExecSeconds(s.WorkGFlop, min(s.Cores, n.Cores))
			if err != nil {
				return nil, err
			}
			ready := 0.0
			for _, depID := range s.After {
				depNode, err := inf.Node(placement[depID])
				if err != nil {
					return nil, err
				}
				dep, _ := wf.Step(depID)
				arrive := finish[depID] + inf.Topology.TransferSeconds(depNode, n, dep.OutputBytes)
				ready = math.Max(ready, arrive)
			}
			start := math.Max(ready, avail[n.ID])
			f := start + exec
			util := float64(min(s.Cores, n.Cores)) / float64(n.Cores)
			energy := (n.MaxW - n.IdleW) * util * exec
			opts = append(opts, option{node: n, finish: f, energy: energy})
		}
		// Prefer the lowest-energy option that meets the deadline estimate;
		// fall back to earliest finish when none does.
		best := -1
		for i, o := range opts {
			if o.finish > deadline {
				continue
			}
			if best == -1 || o.energy < opts[best].energy ||
				(o.energy == opts[best].energy && o.node.ID < opts[best].node.ID) {
				best = i
			}
		}
		if best == -1 {
			for i, o := range opts {
				if best == -1 || o.finish < opts[best].finish ||
					(o.finish == opts[best].finish && o.node.ID < opts[best].node.ID) {
					best = i
				}
			}
		}
		chosen := opts[best]
		placement[id] = chosen.node.ID
		avail[chosen.node.ID] = chosen.finish
		finish[id] = chosen.finish
	}
	return placement, nil
}
