package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
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
	var r Runner
	res, err := r.Run(context.Background(), w, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res["d"].Value != 112 {
		t.Errorf("d = %v, want 112", res["d"].Value)
	}
}

func TestRunnerParallelismIsReal(t *testing.T) {
	// Two independent slow steps must overlap: with real concurrency the
	// pair finishes in well under 2× the single-step duration.
	w := New("par")
	w.MustAdd(Step{ID: "x"})
	w.MustAdd(Step{ID: "y"})
	var inFlight, maxInFlight int32
	body := func(ctx context.Context, _ map[string]any) (any, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&maxInFlight)
			if cur <= old || atomic.CompareAndSwapInt32(&maxInFlight, old, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return nil, nil
	}
	var r Runner
	if _, err := r.Run(context.Background(), w, map[string]StepFunc{"x": body, "y": body}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&maxInFlight) < 2 {
		t.Errorf("steps did not overlap (max in flight %d)", maxInFlight)
	}
}

func TestRunnerMaxConcurrent(t *testing.T) {
	w := New("wide")
	for i := 0; i < 8; i++ {
		w.MustAdd(Step{ID: fmt.Sprintf("s%d", i)})
	}
	var inFlight, maxSeen int32
	bodies := map[string]StepFunc{}
	for _, s := range w.Steps() {
		bodies[s.ID] = func(ctx context.Context, _ map[string]any) (any, error) {
			cur := atomic.AddInt32(&inFlight, 1)
			for {
				old := atomic.LoadInt32(&maxSeen)
				if cur <= old || atomic.CompareAndSwapInt32(&maxSeen, old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return nil, nil
		}
	}
	r := Runner{MaxConcurrent: 2}
	if _, err := r.Run(context.Background(), w, bodies); err != nil {
		t.Fatal(err)
	}
	if m := atomic.LoadInt32(&maxSeen); m > 2 {
		t.Errorf("concurrency cap violated: %d > 2", m)
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
	r := Runner{ContinueOnError: true}
	res, err := r.Run(context.Background(), w, bodies)
	if err == nil {
		t.Fatal("expected error")
	}
	if res["b"].Err == nil {
		t.Error("b should carry its error")
	}
	if !errors.Is(res["d"].Err, ErrSkipped) {
		t.Errorf("d err = %v, want ErrSkipped", res["d"].Err)
	}
	// c is independent of b and ContinueOnError is set: it must succeed.
	if res["c"].Err != nil {
		t.Errorf("c err = %v, want success under ContinueOnError", res["c"].Err)
	}
}

func TestRunnerCancelOnError(t *testing.T) {
	// Without ContinueOnError, a failure cancels in-flight/unstarted work.
	w := New("chain")
	w.MustAdd(Step{ID: "fail"})
	w.MustAdd(Step{ID: "slow"})
	w.MustAdd(Step{ID: "after-slow", After: []string{"slow"}})
	started := make(chan struct{})
	bodies := map[string]StepFunc{
		"fail": func(ctx context.Context, _ map[string]any) (any, error) {
			<-started // ensure slow is running first
			return nil, errors.New("boom")
		},
		"slow": func(ctx context.Context, _ map[string]any) (any, error) {
			close(started)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return "done", nil
			}
		},
		"after-slow": constBody("x"),
	}
	var r Runner
	deadline := time.Now().Add(2 * time.Second)
	res, err := r.Run(context.Background(), w, bodies)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Now().After(deadline) {
		t.Error("cancellation did not propagate promptly")
	}
	if res["slow"].Err == nil {
		t.Error("slow should be cancelled")
	}
}

func TestRunnerMissingBody(t *testing.T) {
	w := diamond(t)
	var r Runner
	if _, err := r.Run(context.Background(), w, map[string]StepFunc{"a": constBody(1)}); err == nil {
		t.Error("missing bodies accepted")
	}
}

func TestRunnerInvalidWorkflow(t *testing.T) {
	w := New("bad")
	w.MustAdd(Step{ID: "a", After: []string{"missing"}})
	var r Runner
	if _, err := r.Run(context.Background(), w, map[string]StepFunc{"a": constBody(1)}); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestRunSequentialMatchesConcurrent(t *testing.T) {
	w := diamond(t)
	mk := func() map[string]StepFunc {
		return map[string]StepFunc{
			"a": constBody(2),
			"b": func(ctx context.Context, deps map[string]any) (any, error) {
				return deps["a"].(int) * 3, nil
			},
			"c": func(ctx context.Context, deps map[string]any) (any, error) {
				return deps["a"].(int) * 5, nil
			},
			"d": func(ctx context.Context, deps map[string]any) (any, error) {
				return deps["b"].(int) + deps["c"].(int), nil
			},
		}
	}
	sequential := Runner{MaxConcurrent: 1}
	seq, err := sequential.Run(context.Background(), w, mk())
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	par, err := r.Run(context.Background(), w, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if seq[id].Value != par[id].Value {
			t.Errorf("step %s: sequential %v vs concurrent %v", id, seq[id].Value, par[id].Value)
		}
	}
}

func TestRunSequentialSkipsAfterFailure(t *testing.T) {
	w := diamond(t)
	bodies := map[string]StepFunc{
		"a": func(ctx context.Context, _ map[string]any) (any, error) { return nil, errors.New("boom") },
		"b": constBody(1), "c": constBody(1), "d": constBody(1),
	}
	sequential := Runner{MaxConcurrent: 1, ContinueOnError: true}
	res, err := sequential.Run(context.Background(), w, bodies)
	if err == nil {
		t.Fatal("expected error")
	}
	for _, id := range []string{"b", "c", "d"} {
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
	var r Runner
	for trial := 0; trial < 3; trial++ {
		res, err := r.Run(context.Background(), w, bodies)
		if err != nil {
			t.Fatal(err)
		}
		if res["sum"].Value != 49*50/2 {
			t.Errorf("sum = %v", res["sum"].Value)
		}
	}
}
