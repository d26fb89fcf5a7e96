package continuum

import (
	"testing"
)

// BenchmarkEngineMillionEvents runs one million tag events through a single
// reused engine: a self-perpetuating chain of 1024 concurrent timers, each
// rescheduling itself until the million-event budget drains. This is the
// scale at which the index-heap layout matters — the whole working set is
// the arena slab plus the int32 heap.
func BenchmarkEngineMillionEvents(b *testing.B) {
	const events = 1_000_000
	const chains = 1024
	e := NewEngine()
	remaining := 0
	e.Handler = func(tag int64) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.MustScheduleTag(float64(tag%7+1), tag)
	}
	cycle := func() {
		e.Reset()
		remaining = events - chains
		for c := 0; c < chains; c++ {
			e.MustScheduleTag(float64(c%7+1), int64(c))
		}
		if err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
		if e.Processed != events {
			b.Fatalf("processed %d events, want %d", e.Processed, events)
		}
	}
	// One untimed cycle grows the arena and heap to their working size, so
	// allocs/op measures the reuse path at any b.N.
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkEnginePushPop measures the steady-state fire+schedule cycle: a
// standing population of 4096 pending events, each rescheduling itself
// when it fires until b.N events have been rescheduled. The timer stops
// there, so the final drain of the standing population is not counted. The
// arena and heap are pre-grown, so the run must show 0 allocs/op.
func BenchmarkEnginePushPop(b *testing.B) {
	e := NewEngine()
	remaining := 0
	e.Handler = func(tag int64) {
		switch {
		case remaining > 0:
			remaining--
			e.MustScheduleTag(1, tag)
		case remaining == 0:
			b.StopTimer()
			remaining--
		}
	}
	for i := 0; i < 4096; i++ {
		e.MustScheduleTag(float64(i), int64(i))
	}
	remaining = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}
