// Package workflow implements the scientific workflow abstraction at the
// centre of the paper: an application modelled as a directed acyclic graph
// of steps connected by data dependencies, "an effective intermediate
// representation for distributed applications" (Section 1).
//
// The package provides the graph model with validation (cycle detection,
// dangling dependencies), structural analyses used by orchestrators
// (topological order, level decomposition), and an in-process executor
// (runner.go) that runs the steps one at a time in topological order. Step
// concurrency, where results depend on it, is modelled by the event
// simulation in internal/orchestrator.
package workflow

import (
	"errors"
	"fmt"
	"sort"
)

// Step is one node of the workflow graph.
type Step struct {
	ID string
	// After lists the IDs of steps that must complete before this one.
	After []string

	// Resource requirements, used by orchestrators and simulators.
	WorkGFlop   float64 // compute work
	Cores       int     // cores requested (min 1 applied at validation)
	MemoryGB    float64
	OutputBytes float64 // size of the data artifact this step produces
	// Tier optionally pins the step to an execution tier ("hpc", "cloud",
	// "edge", "" = anywhere), modelling constraints like air-gapped data.
	Tier string
}

// Workflow is a named DAG of steps.
type Workflow struct {
	Name  string
	steps map[string]*Step
	order []string // insertion order for deterministic iteration
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, steps: map[string]*Step{}}
}

// Add registers a step. Dependencies may reference steps added later;
// Validate checks them.
func (w *Workflow) Add(s Step) error {
	if s.ID == "" {
		return errors.New("workflow: step with empty ID")
	}
	if _, dup := w.steps[s.ID]; dup {
		return fmt.Errorf("workflow: duplicate step %q", s.ID)
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	if s.WorkGFlop < 0 || s.OutputBytes < 0 || s.MemoryGB < 0 {
		return fmt.Errorf("workflow: step %q has negative requirements", s.ID)
	}
	cp := s
	cp.After = append([]string(nil), s.After...)
	w.steps[s.ID] = &cp
	w.order = append(w.order, s.ID)
	return nil
}

// MustAdd is Add that panics on error, for static workflow literals.
func (w *Workflow) MustAdd(s Step) {
	if err := w.Add(s); err != nil {
		panic(err)
	}
}

// Step returns a step by ID.
func (w *Workflow) Step(id string) (*Step, error) {
	s, ok := w.steps[id]
	if !ok {
		return nil, fmt.Errorf("workflow: unknown step %q", id)
	}
	return s, nil
}

// Steps returns all steps in insertion order.
func (w *Workflow) Steps() []*Step {
	out := make([]*Step, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.steps[id])
	}
	return out
}

// Len returns the number of steps.
func (w *Workflow) Len() int { return len(w.order) }

// Dependents returns the IDs of steps that list id in After, sorted.
func (w *Workflow) Dependents(id string) []string {
	var out []string
	for _, sid := range w.order {
		for _, dep := range w.steps[sid].After {
			if dep == id {
				out = append(out, sid)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// ErrCycle is returned when the graph contains a dependency cycle.
var ErrCycle = errors.New("workflow: dependency cycle")

// Validate checks the workflow: non-empty, all dependencies resolve, and
// the graph is acyclic.
func (w *Workflow) Validate() error {
	if len(w.order) == 0 {
		return errors.New("workflow: empty workflow")
	}
	for _, id := range w.order {
		seen := map[string]bool{}
		for _, dep := range w.steps[id].After {
			if _, ok := w.steps[dep]; !ok {
				return fmt.Errorf("workflow: step %q depends on unknown step %q", id, dep)
			}
			if dep == id {
				return fmt.Errorf("workflow: step %q depends on itself", id)
			}
			if seen[dep] {
				return fmt.Errorf("workflow: step %q lists dependency %q twice", id, dep)
			}
			seen[dep] = true
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a deterministic topological order (Kahn's algorithm with
// lexicographic tie-breaking). It returns ErrCycle if the graph is cyclic.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := map[string]int{}
	for _, id := range w.order {
		indeg[id] = len(w.steps[id].After)
	}
	// ready kept sorted for determinism.
	var ready []string
	for _, id := range w.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		var unlocked []string
		for _, dep := range w.Dependents(id) {
			indeg[dep]--
			if indeg[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		if len(unlocked) > 0 {
			ready = append(ready, unlocked...)
			sort.Strings(ready)
		}
	}
	if len(out) != len(w.order) {
		return nil, ErrCycle
	}
	return out, nil
}

// Levels decomposes the DAG into dependency levels: level 0 holds steps with
// no dependencies, level k steps whose longest dependency chain has length
// k. Steps in one level can run concurrently.
func (w *Workflow) Levels() ([][]string, error) {
	topo, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	level := map[string]int{}
	maxLevel := 0
	for _, id := range topo {
		l := 0
		for _, dep := range w.steps[id].After {
			if level[dep]+1 > l {
				l = level[dep] + 1
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]string, maxLevel+1)
	for _, id := range topo {
		out[level[id]] = append(out[level[id]], id)
	}
	for _, lv := range out {
		sort.Strings(lv)
	}
	return out, nil
}

// MaxParallelism returns the size of the widest level.
func (w *Workflow) MaxParallelism() (int, error) {
	levels, err := w.Levels()
	if err != nil {
		return 0, err
	}
	m := 0
	for _, l := range levels {
		if len(l) > m {
			m = len(l)
		}
	}
	return m, nil
}

// TotalWork returns the sum of WorkGFlop over all steps.
func (w *Workflow) TotalWork() float64 {
	var t float64
	for _, id := range w.order {
		t += w.steps[id].WorkGFlop
	}
	return t
}
