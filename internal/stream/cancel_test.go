package stream

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// These tests pin the cancellation behaviour of the fan-out and fan-in
// operators: Tee and Merge must release their goroutines on
// context cancellation (no leak even with stalled consumers) and surface
// ctx.Err() through Collect.

// waitGoroutinesSettle polls until the goroutine count drops back to at
// most base, failing the test after a generous deadline.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

func TestTeeCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())

	// More items than any internal buffer, and the second branch is never
	// consumed, so the Tee goroutine is guaranteed to stall mid-stream.
	xs := make([]int, 10*defaultBuffer)
	for i := range xs {
		xs[i] = i
	}
	a, b := Tee(FromSlice(ctx, xs))

	// Drain a few items from one branch only.
	got := 0
	for range a.ch {
		got++
		if got == 3 {
			break
		}
	}
	cancel()

	// Error propagation: both branches report the cancellation.
	if _, err := a.Collect(); err != context.Canceled {
		t.Errorf("a.Collect err = %v, want context.Canceled", err)
	}
	if _, err := b.Collect(); err != context.Canceled {
		t.Errorf("b.Collect err = %v, want context.Canceled", err)
	}
	waitGoroutinesSettle(t, base)
}

func TestTeeBothBranchesComplete(t *testing.T) {
	ctx := context.Background()
	a, b := Tee(FromSlice(ctx, []int{1, 2, 3}))
	done := make(chan []int, 2)
	for _, s := range []*Stream[int]{a, b} {
		s := s
		go func() {
			out, err := s.Collect()
			if err != nil {
				t.Error(err)
			}
			done <- out
		}()
	}
	for i := 0; i < 2; i++ {
		out := <-done
		if len(out) != 3 || out[0] != 1 || out[2] != 3 {
			t.Errorf("branch output = %v", out)
		}
	}
}

func TestMergeCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())

	// Three producers, each larger than the merge output buffer; nothing
	// consumes, so every forwarding goroutine stalls on the output channel.
	var ins []*Stream[int]
	for p := 0; p < 3; p++ {
		xs := make([]int, 5*defaultBuffer)
		for i := range xs {
			xs[i] = i
		}
		ins = append(ins, FromSlice(ctx, xs))
	}
	m := Merge(ctx, ins...)

	// Consume a handful, then cancel mid-flight.
	got := 0
	for range m.ch {
		got++
		if got == 5 {
			break
		}
	}
	cancel()

	if _, err := m.Collect(); err != context.Canceled {
		t.Errorf("Collect err = %v, want context.Canceled", err)
	}
	waitGoroutinesSettle(t, base)
}

func TestMergeCompletesAndClosesOutput(t *testing.T) {
	ctx := context.Background()
	m := Merge(ctx,
		FromSlice(ctx, []int{1, 2}),
		FromSlice(ctx, []int{3}),
		FromSlice[int](ctx, nil))
	out, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("merged %d items, want 3", len(out))
	}
	// The output channel must be closed once all inputs close.
	if _, ok := <-m.ch; ok {
		t.Error("merge output not closed after inputs drained")
	}
}
