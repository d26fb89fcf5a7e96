package orchestrator

import (
	"fmt"
	"sort"

	"repro/internal/continuum"
	"repro/internal/par"
	"repro/internal/workflow"
)

// StepTrace records the simulated execution of one step.
type StepTrace struct {
	StepID    string
	NodeID    string
	Ready     float64 // all dependencies' data arrived
	Start     float64 // cores acquired
	Finish    float64
	TransferS float64 // slowest input transfer
	WaitS     float64 // Start - Ready (queueing for cores)
}

// Schedule is the outcome of simulating a placement.
type Schedule struct {
	Policy    string
	Placement Placement
	Steps     map[string]StepTrace
	Makespan  float64
	// DynamicEnergyJ is the above-idle energy attributable to step
	// execution; IdleEnergyJ is the idle draw of every node hosting at
	// least one step, integrated over the makespan (nodes not used are
	// assumed powered off, the consolidation lever of Section 2.3).
	DynamicEnergyJ float64
	IdleEnergyJ    float64
	// CostEUR is the rental cost (core-seconds × per-node price).
	CostEUR float64
	// BytesMoved is the total inter-node data movement.
	BytesMoved float64
	// NodesUsed is the number of distinct nodes hosting steps.
	NodesUsed int
}

// TotalEnergyJ returns dynamic plus idle energy.
func (s *Schedule) TotalEnergyJ() float64 { return s.DynamicEnergyJ + s.IdleEnergyJ }

// Simulate executes wf under placement p. inf provides capacity, speeds and
// topology but is not mutated: the simulation runs on a compiled form of the
// scenario (see compile.go) that snapshots free cores up front, so inf is
// exactly as the caller left it throughout.
//
// The model: a step becomes ready when every dependency has finished and its
// output has been transferred to the step's node (transfers happen in
// parallel; the slowest dominates). A ready step waits until its node has
// enough free cores (FIFO per node), runs for its compute time, then
// releases cores.
func Simulate(wf *workflow.Workflow, inf *continuum.Infrastructure, p Placement, policyName string) (*Schedule, error) {
	prog, err := compile(wf, inf, p)
	if err != nil {
		return nil, err
	}
	sc := simPool.Get()
	defer simPool.Put(sc)
	sc.bind(prog)
	sc.baseWork()
	if err := prog.run(sc); err != nil {
		return nil, err
	}
	return prog.buildSchedule(sc, policyName), nil
}

// Compare runs every policy on copies of the same scenario and returns the
// schedules sorted by makespan ascending. It is the engine behind the
// orchestration ablation bench ("placement quality matters"). Policies are
// scored concurrently on the par worker pool (each candidate gets fresh
// wf/inf instances); the makespan sort on the ordered results keeps the
// outcome identical for any par.Workers(n). Policies must not share
// mutable state with each other (one seeded Random policy per list is
// fine; two sharing a *rand.Rand is not).
func Compare(mkWf func() *workflow.Workflow, mkInf func() *continuum.Infrastructure, policies []Policy, opts ...par.Option) ([]*Schedule, error) {
	out, err := par.MapReduceN(len(policies), func(_, lo, hi int) ([]*Schedule, error) {
		scheds := make([]*Schedule, 0, hi-lo)
		for i := lo; i < hi; i++ {
			pol := policies[i]
			wf := mkWf()
			inf := mkInf()
			p, err := pol.Place(wf, inf)
			if err != nil {
				return nil, fmt.Errorf("orchestrator: policy %s: %w", pol.Name(), err)
			}
			s, err := Simulate(wf, inf, p, pol.Name())
			if err != nil {
				return nil, fmt.Errorf("orchestrator: policy %s: %w", pol.Name(), err)
			}
			scheds = append(scheds, s)
		}
		return scheds, nil
	}, func(a, b []*Schedule) []*Schedule { return append(a, b...) }, sweepOpts(opts)...)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Makespan != out[j].Makespan {
			return out[i].Makespan < out[j].Makespan
		}
		return out[i].Policy < out[j].Policy
	})
	return out, nil
}
