package orchestrator

import (
	"fmt"
	"sort"

	"repro/internal/continuum"
	"repro/internal/par"
	"repro/internal/workflow"
)

// This file is the compiled form of the schedule simulator. A workflow ×
// infrastructure × placement triple is compiled once into integer-indexed
// tables (compiledSim); each simulation run then works entirely on pooled
// flat scratch arrays (simScratch) and closure-free engine events, so a
// sweep of thousands of candidates allocates only its output records.
//
// Byte-identity contract: the compiled run replays the seed implementation's
// event schedule exactly — events are created at the same simulated times in
// the same order (so engine seq tie-breaks agree), and every float is
// produced by the same sequence of operations on the same operands
// (exec = work/(GFLOPSPerCore·cores), accumulator loops in workflow
// insertion order, idle energy over lexicographically sorted node IDs).
// The golden test in golden_test.go pins this against the seed outputs.

// finishBit distinguishes step-finish events from step-arrival events in
// the engine tag; the low 32 bits carry the step index.
const finishBit = int64(1) << 32

// compiledStep is one workflow step lowered to indices and precomputed
// constants. Everything that does not depend on the run (transfer times,
// granted cores, energy/cost coefficients) is folded at compile time.
type compiledStep struct {
	id      string
	nodeID  string
	nodeIdx int32
	cores   int32
	coresF  float64 // float64(cores), for the cost accumulator
	work    float64 // base WorkGFlop
	// execDenom is GFLOPSPerCore·cores: exec = effWork/execDenom, the same
	// two operands and operations as Node.ExecSeconds.
	execDenom float64
	// xfer is the slowest input transfer, folded over After in declaration
	// order — placements and topology are fixed per compilation.
	xfer float64
	// dynCoef is (MaxW-IdleW)·(cores/nodeCores): dynamic energy is
	// dynCoef·exec, matching the seed's ((MaxW-IdleW)·util)·exec grouping.
	dynCoef  float64
	costRate float64 // CostPerCoreHour
	deps     []int32 // dependent step indices, sorted by step ID
	nAfter   int32   // len(After): initial remaining-dependency count
}

// compiledSim is an immutable compiled program: one workflow ×
// infrastructure × placement triple ready for repeated simulation.
type compiledSim struct {
	placement Placement
	steps     []compiledStep
	nodeFree  []int32 // free cores per node at compile time (inf order)
	// Static accounting: data movement and the used-node set depend only on
	// the placement, so they are folded here. idleW lists the idle draw of
	// used nodes in lexicographic ID order — the seed's summation order.
	bytesMoved float64
	nodesUsed  int
	idleW      []float64
	maxEvents  int
}

// compile validates and lowers a simulation scenario. Validation errors are
// exactly those of the seed implementation (workflow first, then placement).
func compile(wf *workflow.Workflow, inf *continuum.Infrastructure, p Placement) (*compiledSim, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(wf, inf); err != nil {
		return nil, err
	}

	nodes := inf.Nodes()
	nodeIdx := make(map[string]int32, len(nodes))
	prog := &compiledSim{
		placement: p,
		steps:     make([]compiledStep, 0, wf.Len()),
		nodeFree:  make([]int32, len(nodes)),
		maxEvents: 100 * wf.Len() * 10,
	}
	for j, n := range nodes {
		nodeIdx[n.ID] = int32(j)
		prog.nodeFree[j] = int32(n.FreeCores())
	}

	stepIdx := make(map[string]int32, wf.Len())
	for i, s := range wf.Steps() {
		stepIdx[s.ID] = int32(i)
	}
	used := map[string]bool{}
	for _, s := range wf.Steps() {
		nID := p[s.ID]
		n, err := inf.Node(nID)
		if err != nil {
			return nil, err
		}
		cores := min(s.Cores, n.Cores)
		var maxXfer float64
		for _, depID := range s.After {
			dep, _ := wf.Step(depID)
			depNode, _ := inf.Node(p[depID])
			t := inf.Topology.TransferSeconds(depNode, n, dep.OutputBytes)
			if t > maxXfer {
				maxXfer = t
			}
			if p[depID] != nID {
				prog.bytesMoved += dep.OutputBytes
			}
		}
		deps := wf.Dependents(s.ID)
		depIdx := make([]int32, len(deps))
		for k, d := range deps {
			depIdx[k] = stepIdx[d]
		}
		util := float64(cores) / float64(n.Cores)
		prog.steps = append(prog.steps, compiledStep{
			id:        s.ID,
			nodeID:    nID,
			nodeIdx:   nodeIdx[nID],
			cores:     int32(cores),
			coresF:    float64(cores),
			work:      s.WorkGFlop,
			execDenom: n.GFLOPSPerCore * float64(cores),
			xfer:      maxXfer,
			dynCoef:   (n.MaxW - n.IdleW) * util,
			costRate:  n.CostPerCoreHour,
			deps:      depIdx,
			nAfter:    int32(len(s.After)),
		})
		used[nID] = true
	}
	usedIDs := make([]string, 0, len(used))
	for id := range used {
		usedIDs = append(usedIDs, id)
	}
	sort.Strings(usedIDs)
	prog.nodesUsed = len(used)
	prog.idleW = make([]float64, len(usedIDs))
	for k, id := range usedIDs {
		n, _ := inf.Node(id)
		prog.idleW[k] = n.IdleW
	}
	return prog, nil
}

// simScratch is the mutable state of one simulation run: flat arrays
// indexed by step/node, a reused engine, and per-node FIFO queues. A
// scratch is bound to a program with bind, reused across runs and pooled
// across sweep candidates.
type simScratch struct {
	eng  *continuum.Engine
	prog *compiledSim

	effWork   []float64 // per-run work (base, fault-inflated, or zeroed)
	remaining []int32
	ready     []float64
	start     []float64
	finish    []float64
	done      []bool

	attempts  []int32 // fault-model draws, reused by the sweep drivers
	completed []bool  // resume bookkeeping

	freeCores []int32
	queues    [][]int32 // per-node FIFO of waiting step indices
	qHead     []int32
}

func newSimScratch() *simScratch {
	sc := &simScratch{eng: continuum.NewEngine()}
	sc.eng.Handler = sc.handle
	return sc
}

// simPool recycles scratches across Simulate calls and sweep shards. The
// engine keeps its arena across runs, so steady-state simulation schedules
// zero events on the Go heap.
var simPool = par.NewPool(newSimScratch)

// bind sizes the scratch for prog. Runs of the same or smaller program
// reuse the arrays as-is.
func (sc *simScratch) bind(prog *compiledSim) {
	sc.prog = prog
	n := len(prog.steps)
	if cap(sc.effWork) < n {
		sc.effWork = make([]float64, n)
		sc.remaining = make([]int32, n)
		sc.ready = make([]float64, n)
		sc.start = make([]float64, n)
		sc.finish = make([]float64, n)
		sc.done = make([]bool, n)
		sc.attempts = make([]int32, n)
		sc.completed = make([]bool, n)
	}
	sc.effWork = sc.effWork[:n]
	sc.remaining = sc.remaining[:n]
	sc.ready = sc.ready[:n]
	sc.start = sc.start[:n]
	sc.finish = sc.finish[:n]
	sc.done = sc.done[:n]
	sc.attempts = sc.attempts[:n]
	sc.completed = sc.completed[:n]
	m := len(prog.nodeFree)
	if cap(sc.queues) < m {
		q := make([][]int32, m)
		copy(q, sc.queues)
		sc.queues = q
		sc.qHead = make([]int32, m)
		sc.freeCores = make([]int32, m)
	}
	sc.queues = sc.queues[:m]
	sc.qHead = sc.qHead[:m]
	sc.freeCores = sc.freeCores[:m]
}

// baseWork fills effWork with the uninflated step work.
func (sc *simScratch) baseWork() {
	for i := range sc.prog.steps {
		sc.effWork[i] = sc.prog.steps[i].work
	}
}

// inflatedWork fills effWork with work × attempts — the same multiplication
// the seed applied when rebuilding the workflow with inflated steps.
func (sc *simScratch) inflatedWork() {
	for i := range sc.prog.steps {
		sc.effWork[i] = sc.prog.steps[i].work * float64(sc.attempts[i])
	}
}

// run simulates the bound program over the current effWork. It mirrors the
// seed's event protocol exactly: ready roots scheduled in insertion order,
// arrivals enqueue FIFO per node, starts reserve cores greedily from the
// queue front, finishes release cores, notify dependents in sorted-ID order
// and re-poll the queue.
func (p *compiledSim) run(sc *simScratch) error {
	eng := sc.eng
	eng.Reset()
	eng.MaxEvents = p.maxEvents
	for i := range p.steps {
		sc.remaining[i] = p.steps[i].nAfter
		sc.done[i] = false
	}
	for j := range p.nodeFree {
		sc.freeCores[j] = p.nodeFree[j]
		sc.queues[j] = sc.queues[j][:0]
		sc.qHead[j] = 0
	}
	for i := range p.steps {
		if sc.remaining[i] == 0 {
			eng.MustScheduleTag(p.steps[i].xfer, int64(i))
		}
	}
	if err := eng.RunAll(); err != nil {
		return err
	}
	for i := range p.steps {
		if !sc.done[i] {
			return fmt.Errorf("orchestrator: step %q never completed (deadlock?)", p.steps[i].id)
		}
	}
	return nil
}

// handle dispatches engine tag events: arrival (data landed on the node)
// or finish (execution done).
func (sc *simScratch) handle(tag int64) {
	if tag&finishBit != 0 {
		sc.finishStep(int32(tag &^ finishBit))
	} else {
		sc.arrive(int32(tag))
	}
}

func (sc *simScratch) arrive(i int32) {
	st := &sc.prog.steps[i]
	sc.ready[i] = sc.eng.Now()
	sc.queues[st.nodeIdx] = append(sc.queues[st.nodeIdx], i)
	sc.tryStart(st.nodeIdx)
}

// tryStart starts queued steps from the FIFO front while cores last —
// strictly in arrival order, as the seed's per-node queues did.
func (sc *simScratch) tryStart(node int32) {
	h := sc.qHead[node]
	q := sc.queues[node]
	for int(h) < len(q) {
		i := q[h]
		st := &sc.prog.steps[i]
		if sc.freeCores[node] < st.cores {
			break
		}
		h++
		sc.freeCores[node] -= st.cores
		sc.start[i] = sc.eng.Now()
		exec := sc.effWork[i] / st.execDenom
		sc.eng.MustScheduleTag(exec, int64(i)|finishBit)
	}
	sc.qHead[node] = h
}

func (sc *simScratch) finishStep(i int32) {
	st := &sc.prog.steps[i]
	sc.freeCores[st.nodeIdx] += st.cores
	sc.finish[i] = sc.eng.Now()
	sc.done[i] = true
	for _, d := range st.deps {
		sc.remaining[d]--
		if sc.remaining[d] == 0 {
			sc.eng.MustScheduleTag(sc.prog.steps[d].xfer, int64(d))
		}
	}
	sc.tryStart(st.nodeIdx)
}

// makespan folds the finish times in insertion order, the seed's loop.
func (sc *simScratch) makespan() float64 {
	var m float64
	for i := range sc.prog.steps {
		if sc.finish[i] > m {
			m = sc.finish[i]
		}
	}
	return m
}

// buildSchedule materializes the public Schedule from the scratch arrays.
// Accumulator loops run in workflow insertion order and idle energy over
// the compile-time sorted node list, reproducing the seed's float sums bit
// for bit.
func (p *compiledSim) buildSchedule(sc *simScratch, policyName string) *Schedule {
	sched := &Schedule{
		Policy:     policyName,
		Placement:  p.placement,
		Steps:      make(map[string]StepTrace, len(p.steps)),
		BytesMoved: p.bytesMoved,
		NodesUsed:  p.nodesUsed,
	}
	for i := range p.steps {
		st := &p.steps[i]
		sched.Steps[st.id] = StepTrace{
			StepID:    st.id,
			NodeID:    st.nodeID,
			Ready:     sc.ready[i],
			Start:     sc.start[i],
			Finish:    sc.finish[i],
			TransferS: st.xfer,
			WaitS:     sc.start[i] - sc.ready[i],
		}
		if sc.finish[i] > sched.Makespan {
			sched.Makespan = sc.finish[i]
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		exec := sc.finish[i] - sc.start[i]
		sched.DynamicEnergyJ += st.dynCoef * exec
		sched.CostEUR += st.coresF * exec / 3600 * st.costRate
	}
	for _, w := range p.idleW {
		sched.IdleEnergyJ += w * sched.Makespan
	}
	return sched
}
