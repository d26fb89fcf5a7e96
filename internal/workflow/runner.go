package workflow

import (
	"context"
	"errors"
	"fmt"
)

// StepFunc is the user-supplied body of a workflow step. It receives the
// results of the steps it depends on, keyed by step ID, and returns its own
// result. Results are opaque to the engine.
type StepFunc func(ctx context.Context, deps map[string]any) (any, error)

// Result records the outcome of one step.
type Result struct {
	StepID string
	Value  any
	Err    error
}

// ErrSkipped marks a step not executed because an earlier step failed or
// the context was cancelled.
var ErrSkipped = errors.New("workflow: skipped after an earlier failure")

// Run executes wf one step at a time on the calling goroutine, in
// wf.TopoOrder(), calling bodies[stepID] with the values of the step's
// dependencies. Every step must have a body. After the first step error, or
// once ctx is cancelled, every remaining step is recorded as ErrSkipped
// without running, so a given workflow and bodies always run the same steps
// in the same order. It returns per-step results keyed by step ID; the error
// is the first step failure (or ctx error).
func Run(ctx context.Context, wf *Workflow, bodies map[string]StepFunc) (map[string]Result, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	for _, s := range wf.Steps() {
		if bodies[s.ID] == nil {
			return nil, fmt.Errorf("workflow: no body for step %q", s.ID)
		}
	}
	order, err := wf.TopoOrder()
	if err != nil {
		return nil, err
	}

	results := make(map[string]Result, len(order))
	var firstErr error
	for _, id := range order {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			results[id] = Result{StepID: id, Err: ErrSkipped}
			continue
		}
		s := wf.steps[wf.index[id]]
		deps := make(map[string]any, len(s.After))
		for _, dep := range s.After {
			deps[dep] = results[dep].Value
		}
		v, err := bodies[id](ctx, deps)
		results[id] = Result{StepID: id, Value: v, Err: err}
		if err != nil {
			firstErr = fmt.Errorf("workflow: step %q: %w", id, err)
		}
	}
	return results, firstErr
}
