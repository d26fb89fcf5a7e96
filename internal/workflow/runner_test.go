package workflow

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func constBody(v any) StepFunc {
	return func(ctx context.Context, deps map[string]any) (any, error) { return v, nil }
}

func TestRunnerDiamond(t *testing.T) {
	w := diamond(t)
	bodies := map[string]StepFunc{
		"a": constBody(1),
		"b": func(ctx context.Context, deps map[string]any) (any, error) {
			return deps["a"].(int) + 10, nil
		},
		"c": func(ctx context.Context, deps map[string]any) (any, error) {
			return deps["a"].(int) + 100, nil
		},
		"d": func(ctx context.Context, deps map[string]any) (any, error) {
			return deps["b"].(int) + deps["c"].(int), nil
		},
	}
	res, err := Run(context.Background(), w, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res["d"].Value != 112 {
		t.Errorf("d = %v, want 112", res["d"].Value)
	}
}

func TestRunnerFailurePoisonsDependents(t *testing.T) {
	w := diamond(t)
	bodies := map[string]StepFunc{
		"a": constBody(1),
		"b": func(ctx context.Context, _ map[string]any) (any, error) {
			return nil, errors.New("boom")
		},
		"c": constBody(2),
		"d": constBody(3),
	}
	res, err := Run(context.Background(), w, bodies)
	if err == nil {
		t.Fatal("expected error")
	}
	if res["b"].Err == nil {
		t.Error("b should carry its error")
	}
	if !errors.Is(res["d"].Err, ErrSkipped) {
		t.Errorf("d err = %v, want ErrSkipped", res["d"].Err)
	}
}

func TestRunnerMissingBody(t *testing.T) {
	w := diamond(t)
	if _, err := Run(context.Background(), w, map[string]StepFunc{"a": constBody(1)}); err == nil {
		t.Error("missing bodies accepted")
	}
}

func TestRunnerInvalidWorkflow(t *testing.T) {
	w := New("bad")
	w.MustAdd(Step{ID: "a", After: []string{"missing"}})
	if _, err := Run(context.Background(), w, map[string]StepFunc{"a": constBody(1)}); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestRunSequentialSkipsAfterFailure(t *testing.T) {
	w := diamond(t)
	bodies := map[string]StepFunc{
		"a": func(ctx context.Context, _ map[string]any) (any, error) { return nil, errors.New("boom") },
		"b": constBody(1), "c": constBody(1), "d": constBody(1),
	}
	res, err := Run(context.Background(), w, bodies)
	if err == nil {
		t.Fatal("expected error")
	}
	for _, id := range []string{"b", "c", "d"} {
		if !errors.Is(res[id].Err, ErrSkipped) {
			t.Errorf("%s err = %v, want ErrSkipped", id, res[id].Err)
		}
	}
}

// A context cancelled before Run skips every step; a body that cancels the
// context skips the steps after it in topological order.
func TestRunStopsOnCancel(t *testing.T) {
	w := diamond(t)
	var called []string
	record := func(id string, then func()) StepFunc {
		return func(context.Context, map[string]any) (any, error) {
			called = append(called, id)
			if then != nil {
				then()
			}
			return id, nil
		}
	}
	bodies := map[string]StepFunc{}
	for _, id := range []string{"a", "b", "c", "d"} {
		bodies[id] = record(id, nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, w, bodies)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(called) != 0 {
		t.Errorf("cancelled run called %v", called)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if !errors.Is(res[id].Err, ErrSkipped) {
			t.Errorf("%s err = %v, want ErrSkipped", id, res[id].Err)
		}
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	called = nil
	bodies["b"] = record("b", cancel)
	res, err = Run(ctx, w, bodies)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := fmt.Sprint(called); got != "[a b]" {
		t.Errorf("called %s, want [a b]", got)
	}
	if res["a"].Value != "a" || res["b"].Value != "b" {
		t.Errorf("completed steps lost their values: a=%v b=%v", res["a"].Value, res["b"].Value)
	}
	for _, id := range []string{"c", "d"} {
		if !errors.Is(res[id].Err, ErrSkipped) {
			t.Errorf("%s err = %v, want ErrSkipped", id, res[id].Err)
		}
	}
}

func TestRunnerWideFanDeterministicValues(t *testing.T) {
	// 50 producers feed one consumer; sum must be stable across runs.
	w := New("fan")
	var after []string
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("p%02d", i)
		w.MustAdd(Step{ID: id})
		after = append(after, id)
	}
	w.MustAdd(Step{ID: "sum", After: after})
	bodies := map[string]StepFunc{}
	for i := 0; i < 50; i++ {
		bodies[fmt.Sprintf("p%02d", i)] = constBody(i)
	}
	bodies["sum"] = func(ctx context.Context, deps map[string]any) (any, error) {
		s := 0
		for _, v := range deps {
			s += v.(int)
		}
		return s, nil
	}
	for trial := 0; trial < 3; trial++ {
		res, err := Run(context.Background(), w, bodies)
		if err != nil {
			t.Fatal(err)
		}
		if res["sum"].Value != 49*50/2 {
			t.Errorf("sum = %v", res["sum"].Value)
		}
	}
}
