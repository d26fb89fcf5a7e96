package scenarios

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exp"
)

// RunOps executes a composition: each op in order against a fresh State.
// This single generic runner replaces the 28 bespoke closure bodies — a
// scenario (or a generated configuration) is purely the data it hands in.
func RunOps(ctx context.Context, env *exp.Env, ops []Op) (*State, error) {
	if len(ops) == 0 {
		return nil, errors.New("scenarios: empty composition")
	}
	st := &State{}
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := op.Apply(ctx, env, st); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Kind(), err)
		}
	}
	return st, nil
}
