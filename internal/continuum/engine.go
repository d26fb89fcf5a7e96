package continuum

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the discrete-event simulation core used by the
// orchestration, FaaS and energy substrates. The engine is single-threaded
// and fully deterministic: events at equal timestamps fire in scheduling
// order (the monotonic seq tie-break in less), so repeated runs — including
// the parallel scenario sweeps that run one engine per candidate — produce
// identical traces.
//
// Storage is an index-based binary heap over a growable arena of event
// records plus a free-list: Push/Pop move int32 slot indices, never boxed
// pointers, so steady-state scheduling is allocation-free and the hot loop
// walks a contiguous slab instead of chasing heap-allocated event objects.
// The (at, seq) key is a total order, which makes any internal heap
// arrangement observationally equivalent.

// event is one arena record. Records are recycled through the free list.
type event struct {
	at  float64
	seq uint64 // tie-breaker preserving scheduling order at equal times
	fn  func() // nil for tag events dispatched through Engine.Handler
	tag int64
}

// Engine is a deterministic discrete-event simulator.
type Engine struct {
	now   float64
	seq   uint64
	arena []event // slot-indexed records, grown on demand, never shrunk
	heap  []int32 // binary heap of arena slots ordered by (at, seq)
	free  []int32 // recycled slots available for reuse

	// Handler dispatches events scheduled with ScheduleTag. Compiled
	// simulators use tags instead of closures so that scheduling allocates
	// nothing; one handler set once replaces one closure per event.
	Handler func(tag int64)

	// Processed counts executed events, useful for run-away detection in
	// tests and benchmarks. Run batches its updates in a local counter and
	// flushes on exit, keeping the per-event loop free of field writes
	// beyond the clock itself.
	Processed int
	// MaxEvents aborts Run after this many events when > 0.
	MaxEvents int
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// less orders heap entries by (at, seq) — a strict total order, since seq
// is unique per scheduled event.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			m = r
		}
		if !e.less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// alloc returns a free arena slot, growing the arena when the free list is
// empty. Growth is amortised: once a workload's peak concurrency has been
// seen, scheduling never allocates again.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.arena = append(e.arena, event{})
	return int32(len(e.arena) - 1)
}

// recycle returns a fired record to the free list.
func (e *Engine) recycle(slot int32) {
	e.arena[slot].fn = nil
	e.free = append(e.free, slot)
}

// popRoot removes and returns the heap root slot. Caller guarantees the
// heap is non-empty.
func (e *Engine) popRoot() int32 {
	h := e.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return root
}

// schedule is the shared slot-fill path behind Schedule and ScheduleTag.
func (e *Engine) schedule(delay float64, fn func(), tag int64) error {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("continuum: invalid delay %v", delay)
	}
	slot := e.alloc()
	ev := &e.arena[slot]
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.fn = fn
	ev.tag = tag
	e.seq++
	e.heap = append(e.heap, slot)
	e.siftUp(len(e.heap) - 1)
	return nil
}

// Schedule runs fn after delay seconds. Negative delays are errors.
func (e *Engine) Schedule(delay float64, fn func()) error {
	if fn == nil {
		return errors.New("continuum: nil event callback")
	}
	return e.schedule(delay, fn, 0)
}

// MustSchedule is Schedule for callers with known-good delays; it panics on
// programmer error.
func (e *Engine) MustSchedule(delay float64, fn func()) {
	if err := e.Schedule(delay, fn); err != nil {
		panic(err)
	}
}

// ScheduleTag schedules a closure-free event: at fire time the engine calls
// Handler(tag) instead of a per-event callback. This is the hot path for
// compiled simulators, where one integer tag encodes the action and the
// subject and scheduling must not allocate.
func (e *Engine) ScheduleTag(delay float64, tag int64) error {
	if e.Handler == nil {
		return errors.New("continuum: ScheduleTag with nil Engine.Handler")
	}
	return e.schedule(delay, nil, tag)
}

// MustScheduleTag is ScheduleTag that panics on programmer error.
func (e *Engine) MustScheduleTag(delay float64, tag int64) {
	if err := e.ScheduleTag(delay, tag); err != nil {
		panic(err)
	}
}

// fire pops the root, recycles its slot before dispatch (so the callback
// can immediately reuse it) and invokes the callback or tag handler.
func (e *Engine) fire() {
	slot := e.popRoot()
	ev := &e.arena[slot]
	e.now = ev.at
	fn, tag := ev.fn, ev.tag
	e.recycle(slot)
	if fn != nil {
		fn()
	} else {
		e.Handler(tag)
	}
}

// Run executes events until the queue drains or until the given horizon
// (inclusive; math.Inf(1) for no horizon). It returns an error if MaxEvents
// is exceeded, which in practice means a simulation is self-perpetuating.
func (e *Engine) Run(until float64) error {
	processed := e.Processed
	defer func() { e.Processed = processed }()
	for len(e.heap) > 0 {
		// Peek: the heap root is the earliest event by (at, seq).
		ev := &e.arena[e.heap[0]]
		if ev.at > until {
			return nil
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("continuum: time went backwards (%v < %v)", ev.at, e.now))
		}
		processed++
		e.fire()
		if e.MaxEvents > 0 && processed > e.MaxEvents {
			return fmt.Errorf("continuum: exceeded %d events at t=%v", e.MaxEvents, e.now)
		}
	}
	return nil
}

// RunAll executes events until the queue drains.
func (e *Engine) RunAll() error { return e.Run(math.Inf(1)) }

// Reset returns the engine to time zero while keeping the arena and heap
// capacity, so sweeps can reuse one engine per worker without re-growing.
func (e *Engine) Reset() {
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := range e.arena {
		e.arena[i].fn = nil
		e.free = append(e.free, int32(i))
	}
	e.now = 0
	e.seq = 0
	e.Processed = 0
}
