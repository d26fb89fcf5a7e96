package continuum

import (
	"math/rand"
	"testing"
)

// checkHeapInvariant verifies the binary-heap property over (at, seq) and
// the slot bookkeeping (free list disjoint from heap, together the arena).
func checkHeapInvariant(t *testing.T, e *Engine) {
	t.Helper()
	for i := 1; i < len(e.heap); i++ {
		parent := (i - 1) / 2
		if e.less(e.heap[i], e.heap[parent]) {
			t.Fatalf("heap invariant violated at index %d: child (at=%v seq=%d) < parent (at=%v seq=%d)",
				i, e.arena[e.heap[i]].at, e.arena[e.heap[i]].seq,
				e.arena[e.heap[parent]].at, e.arena[e.heap[parent]].seq)
		}
	}
	inHeap := map[int32]bool{}
	for _, slot := range e.heap {
		if inHeap[slot] {
			t.Fatalf("slot %d appears twice in heap", slot)
		}
		inHeap[slot] = true
	}
	for _, slot := range e.free {
		if inHeap[slot] {
			t.Fatalf("slot %d on free list while still in heap", slot)
		}
	}
	if len(e.heap)+len(e.free) != len(e.arena) {
		t.Fatalf("heap(%d) + free(%d) != arena(%d)", len(e.heap), len(e.free), len(e.arena))
	}
}

// TestEngineHeapInvariantProperty drives the engine with a randomized mix
// of schedules, partial runs and resets, checking the heap invariant
// throughout. The seed is fixed, so failures reproduce.
func TestEngineHeapInvariantProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	e := NewEngine()
	for op := 0; op < 20_000; op++ {
		switch k := r.Intn(100); {
		case k < 60: // schedule
			e.MustSchedule(r.Float64()*100, func() {})
		case k < 99: // run a short stretch of simulated time
			if err := e.Run(e.Now() + r.Float64()); err != nil {
				t.Fatal(err)
			}
		default: // reset: every slot goes back to the free list
			e.Reset()
			if len(e.heap) != 0 || e.Now() != 0 || e.Processed != 0 {
				t.Fatalf("Reset left state: heap=%d now=%v processed=%d", len(e.heap), e.Now(), e.Processed)
			}
		}
		if op%512 == 0 {
			checkHeapInvariant(t, e)
		}
	}
	checkHeapInvariant(t, e)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(e.heap) != 0 {
		t.Fatalf("%d events left after drain", len(e.heap))
	}
	checkHeapInvariant(t, e)
}

// TestEngineScheduleTag checks the closure-free dispatch path: tags reach
// the handler, with the same (at, seq) ordering as closure events.
func TestEngineScheduleTag(t *testing.T) {
	e := NewEngine()
	if err := e.ScheduleTag(1, 42); err == nil {
		t.Fatal("ScheduleTag with nil Handler should fail")
	}
	var got []int64
	e.Handler = func(tag int64) { got = append(got, tag) }
	e.MustScheduleTag(2, 200)
	e.MustScheduleTag(1, 100)
	e.MustSchedule(1.5, func() { got = append(got, 150) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 150, 200}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
