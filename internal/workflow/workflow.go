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
	"slices"
	"sort"
	"sync/atomic"
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

// Workflow is a named DAG of steps. Add is its only mutation: the steps it
// hands out are read-only, and once built, a workflow may be read from any
// number of goroutines.
type Workflow struct {
	Name  string
	steps []*Step        // insertion order, for deterministic iteration
	index map[string]int // step ID → position in steps
	// derived caches the adjacency, order and validation result of the
	// steps. The first reader builds it; Add drops it.
	derived atomic.Pointer[graph]
}

// graph is what a workflow derives from its steps, built once per set of
// steps and shared by every reader.
type graph struct {
	dependents [][]string // by step position: IDs listing that step in After, sorted
	topo       []string   // Kahn order; nil when cyclic
	topoErr    error
	validErr   error
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, index: map[string]int{}}
}

// Add registers a step. Dependencies may reference steps added later;
// Validate checks them.
func (w *Workflow) Add(s Step) error {
	if s.ID == "" {
		return errors.New("workflow: step with empty ID")
	}
	if _, dup := w.index[s.ID]; dup {
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
	w.index[s.ID] = len(w.steps)
	w.steps = append(w.steps, &cp)
	w.derived.Store(nil)
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
	i, ok := w.index[id]
	if !ok {
		return nil, fmt.Errorf("workflow: unknown step %q", id)
	}
	return w.steps[i], nil
}

// Steps returns all steps in insertion order. The slice is the workflow's
// own: callers must not modify it (an append copies).
func (w *Workflow) Steps() []*Step { return w.steps[:len(w.steps):len(w.steps)] }

// Len returns the number of steps.
func (w *Workflow) Len() int { return len(w.steps) }

// Dependents returns the IDs of steps that list id in After, sorted. The
// slice is shared: callers must not modify it.
func (w *Workflow) Dependents(id string) []string {
	if i, ok := w.index[id]; ok {
		return w.graph().dependents[i]
	}
	// No step has this ID, but steps may still name it as a (dangling)
	// dependency.
	var out []string
	for _, s := range w.steps {
		if slices.Contains(s.After, id) {
			out = append(out, s.ID)
		}
	}
	sort.Strings(out)
	return out
}

// ErrCycle is returned when the graph contains a dependency cycle.
var ErrCycle = errors.New("workflow: dependency cycle")

// Validate checks the workflow: non-empty, all dependencies resolve, and
// the graph is acyclic.
func (w *Workflow) Validate() error { return w.graph().validErr }

// TopoOrder returns a deterministic topological order (Kahn's algorithm with
// lexicographic tie-breaking). It returns ErrCycle if the graph is cyclic.
// The slice is shared: callers must not modify it.
func (w *Workflow) TopoOrder() ([]string, error) {
	g := w.graph()
	return g.topo, g.topoErr
}

// graph returns the derived graph, building it on first use. Concurrent
// first readers may each build one; all are equal, and one is kept.
func (w *Workflow) graph() *graph {
	if g := w.derived.Load(); g != nil {
		return g
	}
	g := w.derive()
	if w.derived.CompareAndSwap(nil, g) {
		return g
	}
	return w.derived.Load()
}

// derive computes the adjacency (one pass over the edges), the order and
// the validation result.
func (w *Workflow) derive() *graph {
	n := len(w.steps)
	g := &graph{dependents: make([][]string, n)}
	// Each step counts once per distinct dependency it names.
	distinct := func(after []string, k int) bool { return !slices.Contains(after[:k], after[k]) }
	start := make([]int, n+1)
	for _, s := range w.steps {
		for k, dep := range s.After {
			if j, ok := w.index[dep]; ok && distinct(s.After, k) {
				start[j+1]++
			}
		}
	}
	for j := range n {
		start[j+1] += start[j]
	}
	flat := make([]string, start[n])
	next := slices.Clone(start[:n])
	for _, s := range w.steps {
		for k, dep := range s.After {
			if j, ok := w.index[dep]; ok && distinct(s.After, k) {
				flat[next[j]] = s.ID
				next[j]++
			}
		}
	}
	for j := range n {
		if lo, hi := start[j], start[j+1]; lo < hi {
			g.dependents[j] = flat[lo:hi:hi]
			sort.Strings(g.dependents[j])
		}
	}
	g.topo, g.topoErr = w.kahn(g.dependents)
	g.validErr = w.validate(g.topoErr)
	return g
}

// kahn orders the steps, always taking the lexicographically smallest ready
// step. A step's in-degree counts every After entry, so a duplicate or
// dangling dependency never resolves and reads as a cycle.
func (w *Workflow) kahn(dependents [][]string) ([]string, error) {
	indeg := make([]int, len(w.steps))
	var ready []string
	for i, s := range w.steps {
		indeg[i] = len(s.After)
		if indeg[i] == 0 {
			ready = append(ready, s.ID)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, dep := range dependents[w.index[id]] {
			j := w.index[dep]
			if indeg[j]--; indeg[j] == 0 {
				at, _ := slices.BinarySearch(ready, dep)
				ready = slices.Insert(ready, at, dep)
			}
		}
	}
	if len(out) != len(w.steps) {
		return nil, ErrCycle
	}
	return out[:len(out):len(out)], nil
}

// validate reports the first structural fault in insertion order, then the
// ordering error.
func (w *Workflow) validate(topoErr error) error {
	if len(w.steps) == 0 {
		return errors.New("workflow: empty workflow")
	}
	for _, s := range w.steps {
		for k, dep := range s.After {
			if _, ok := w.index[dep]; !ok {
				return fmt.Errorf("workflow: step %q depends on unknown step %q", s.ID, dep)
			}
			if dep == s.ID {
				return fmt.Errorf("workflow: step %q depends on itself", s.ID)
			}
			if slices.Contains(s.After[:k], dep) {
				return fmt.Errorf("workflow: step %q lists dependency %q twice", s.ID, dep)
			}
		}
	}
	return topoErr
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
		for _, dep := range w.steps[w.index[id]].After {
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
	for _, s := range w.steps {
		t += s.WorkGFlop
	}
	return t
}
