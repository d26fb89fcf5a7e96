package stream

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// ints streams 0, 1, …, n-1.
func ints(ctx context.Context, n int) *Stream[int] {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return FromSlice(ctx, xs)
}

// naturals streams 0, 1, 2, … until ctx is cancelled.
func naturals(ctx context.Context) *Stream[int] {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for i := 0; ; i++ {
			select {
			case ch <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	return &Stream[int]{ch: ch, ctx: ctx}
}

func TestFromSliceCollect(t *testing.T) {
	ctx := context.Background()
	got, err := FromSlice(ctx, []int{1, 2, 3}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
}

func TestMapSingleWorkerPreservesOrder(t *testing.T) {
	ctx := context.Background()
	s := ints(ctx, 50)
	out, err := Map(s, func(x int) int { return x * 2 }, Workers(1)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapFarmOrdered(t *testing.T) {
	ctx := context.Background()
	s := ints(ctx, 200)
	out, err := Map(s, func(x int) int {
		if x%7 == 0 {
			time.Sleep(time.Millisecond) // jitter to scramble completion order
		}
		return x * x
	}, Workers(8), Ordered()).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("ordered farm broke order at %d: %d", i, v)
		}
	}
}

func TestMapFarmUnorderedCompleteness(t *testing.T) {
	ctx := context.Background()
	s := ints(ctx, 500)
	out, err := Map(s, func(x int) int { return x }, Workers(8)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 {
		t.Fatalf("len = %d", len(out))
	}
	sort.Ints(out)
	for i, v := range out {
		if v != i {
			t.Fatalf("missing or duplicated item at %d: %d", i, v)
		}
	}
}

func TestMapFarmActuallyParallel(t *testing.T) {
	ctx := context.Background()
	var inFlight, maxIF int32
	s := ints(ctx, 16)
	_, err := Map(s, func(x int) int {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&maxIF)
			if cur <= old || atomic.CompareAndSwapInt32(&maxIF, old, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return x
	}, Workers(4)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m := atomic.LoadInt32(&maxIF); m < 2 {
		t.Errorf("farm not parallel: max in-flight %d", m)
	}
}

func TestPipelineComposition(t *testing.T) {
	// FastFlow-style pipeline: source → map (farm) → map (farm) → collect.
	ctx := context.Background()
	src := ints(ctx, 1000)
	squared := Map(src, func(x int) int { return x * x }, Workers(4), Ordered())
	parity := Map(squared, func(x int) int { return x % 2 }, Workers(2), Ordered())
	out, err := parity.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("len = %d, want 1000", len(out))
	}
	for i, v := range out {
		if v != i%2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i%2)
		}
	}
}

func TestCancellationStopsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := naturals(ctx)
	mapped := Map(src, func(x int) int { return x }, Workers(2))
	got := 0
	for range mapped.ch {
		got++
		if got == 10 {
			cancel()
			break
		}
	}
	// The pipeline must wind down; give it a moment and ensure no deadlock
	// by draining whatever remains buffered.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-mapped.ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("pipeline did not terminate after cancel")
		}
	}
}

func TestCollectReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan int) // never closed, never written
	s := &Stream[int]{ch: ch, ctx: ctx}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := s.Collect()
	if err == nil {
		t.Error("expected context error")
	}
}

// waitFull polls until s's output buffer is full, so every stage upstream
// of it is blocked behind a reader that has stopped.
func waitFull[T any](t *testing.T, s *Stream[T]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.ch) < cap(s.ch) {
		if time.Now().After(deadline) {
			t.Fatalf("output buffer stuck at %d of %d", len(s.ch), cap(s.ch))
		}
		time.Sleep(time.Millisecond)
	}
}

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

// Cancelling a pipeline whose reader stopped mid-stream releases every
// operator goroutine, those blocked on a full channel included, and Collect
// reports exactly context.Canceled. The pipelines are the shapes the
// reached code builds: ppc's ordered farm and scenarios' windowed sum.
func TestCancellationReleasesGoroutines(t *testing.T) {
	pipelines := []struct {
		name  string
		build func(ctx context.Context, src *Stream[int]) *Stream[int]
	}{
		{"map", func(ctx context.Context, src *Stream[int]) *Stream[int] {
			return Map(src, func(x int) int { return x }, Workers(1))
		}},
		{"ordered farm", func(ctx context.Context, src *Stream[int]) *Stream[int] {
			return Map(src, func(x int) int { return x }, Workers(4), Ordered())
		}},
		{"keyed windows", func(ctx context.Context, src *Stream[int]) *Stream[int] {
			keyed := KeyBy(ctx, src, func(x int) string { return fmt.Sprint(x % 3) })
			return AggregateWindows(TumblingCount(keyed, 2),
				func(w Window[int]) int { return len(w.Items) }, Workers(2))
		}},
	}
	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// More items than all the buffers hold, so the pipeline stalls.
			out := p.build(ctx, ints(ctx, 10*defaultBuffer))
			for i := 0; i < 3; i++ {
				<-out.ch
			}
			waitFull(t, out)
			cancel()
			if _, err := out.Collect(); err != context.Canceled {
				t.Errorf("Collect err = %v, want context.Canceled", err)
			}
			waitGoroutinesSettle(t, base)
		})
	}
}

func TestWorkersOptionClamps(t *testing.T) {
	o := buildOptions([]Option{Workers(-3)})
	if o.workers != 1 {
		t.Errorf("workers = %d", o.workers)
	}
}

// Throughput sanity: a 4-worker farm on CPU-bound work must beat 1 worker.
// Guarded by -short to keep CI fast and avoid flakiness on loaded machines.
func TestFarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	work := func(x int) int {
		acc := x
		for i := 0; i < 20000; i++ {
			acc = acc*31 + i
		}
		return acc
	}
	run := func(workers int) time.Duration {
		ctx := context.Background()
		start := time.Now()
		s := ints(ctx, 2000)
		_, err := Map(s, work, Workers(workers)).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := run(1)
	par := run(4)
	if par > seq {
		t.Logf("warning: farm(4)=%v not faster than farm(1)=%v (loaded machine?)", par, seq)
	}
	speedup := float64(seq) / float64(par)
	if speedup < 1.2 {
		t.Logf("speedup only %.2fx", speedup)
	}
}

func ExampleMap() {
	ctx := context.Background()
	s := FromSlice(ctx, []int{1, 2, 3, 4})
	out, _ := Map(s, func(x int) int { return x * 10 }, Workers(2), Ordered()).Collect()
	fmt.Println(out)
	// Output: [10 20 30 40]
}
