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

// Result records the outcome of one executed step.
type Result struct {
	StepID string
	Value  any
	Err    error
}

// Runner executes a workflow's steps concurrently: every step runs on its
// own goroutine as soon as all dependencies have completed, bounded by
// MaxConcurrent simultaneous steps (0 = unbounded). The first step error
// cancels the remaining execution.
type Runner struct {
	// MaxConcurrent bounds simultaneously running steps (0 = unlimited).
	MaxConcurrent int
	// ContinueOnError keeps scheduling steps whose dependencies all
	// succeeded even after some other step failed; failed steps still poison
	// their dependents.
	ContinueOnError bool
}

// ErrSkipped marks a step not executed because a dependency failed.
var ErrSkipped = errors.New("workflow: skipped due to failed dependency")

// Run executes wf, calling bodies[stepID] for each step. Every step must
// have a body. It returns per-step results keyed by step ID; the error is
// the first step failure (or ctx error).
func (r *Runner) Run(ctx context.Context, wf *Workflow, bodies map[string]StepFunc) (map[string]Result, error) {
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	for _, s := range wf.Steps() {
		if bodies[s.ID] == nil {
			return nil, fmt.Errorf("workflow: no body for step %q", s.ID)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var sem chan struct{}
	if r.MaxConcurrent > 0 {
		sem = make(chan struct{}, r.MaxConcurrent)
	}

	type doneMsg struct {
		id  string
		res Result
	}
	doneCh := make(chan doneMsg)

	// Dependency bookkeeping (single-threaded in this coordinator loop).
	waiting := map[string]int{}
	for _, s := range wf.Steps() {
		waiting[s.ID] = len(s.After)
	}
	results := map[string]Result{}
	running := 0
	var firstErr error

	launch := func(id string) {
		running++
		deps := map[string]any{}
		s, _ := wf.Step(id)
		for _, dep := range s.After {
			deps[dep] = results[dep].Value
		}
		body := bodies[id]
		go func() {
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					doneCh <- doneMsg{id, Result{StepID: id, Err: ctx.Err()}}
					return
				}
			}
			v, err := body(ctx, deps)
			doneCh <- doneMsg{id, Result{StepID: id, Value: v, Err: err}}
		}()
	}

	// Poison propagates ErrSkipped transitively to dependents of failures.
	poisoned := map[string]bool{}
	var poison func(id string)
	poison = func(id string) {
		for _, dep := range wf.Dependents(id) {
			if _, done := results[dep]; done || poisoned[dep] {
				continue
			}
			poisoned[dep] = true
			results[dep] = Result{StepID: dep, Err: ErrSkipped}
			poison(dep)
		}
	}

	// Seed.
	for _, s := range wf.Steps() {
		if waiting[s.ID] == 0 {
			launch(s.ID)
		}
	}

	for running > 0 {
		msg := <-doneCh
		running--
		// A poisoned step may still deliver a result if it failed while we
		// marked it; keep the first recorded outcome.
		if _, exists := results[msg.id]; !exists {
			results[msg.id] = msg.res
		}
		if msg.res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("workflow: step %q: %w", msg.id, msg.res.Err)
			}
			poison(msg.id)
			if !r.ContinueOnError {
				cancel()
			}
			continue
		}
		// Unlock dependents.
		for _, dep := range wf.Dependents(msg.id) {
			if poisoned[dep] {
				continue
			}
			waiting[dep]--
			if waiting[dep] == 0 {
				if firstErr != nil && !r.ContinueOnError {
					poisoned[dep] = true
					results[dep] = Result{StepID: dep, Err: ErrSkipped}
					continue
				}
				launch(dep)
			}
		}
	}

	// Any step never launched (e.g. cancelled before its turn) is skipped.
	for _, s := range wf.Steps() {
		if _, ok := results[s.ID]; !ok {
			results[s.ID] = Result{StepID: s.ID, Err: ErrSkipped}
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
}
