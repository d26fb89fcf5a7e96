package continuum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.MustSchedule(3, func() { order = append(order, 3) })
	e.MustSchedule(1, func() { order = append(order, 1) })
	e.MustSchedule(2, func() { order = append(order, 2) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(1, func() { order = append(order, i) })
	}
	_ = e.RunAll()
	if !sort.IntsAreSorted(order) {
		t.Errorf("equal-time events fired out of scheduling order: %v", order)
	}
}

// Regression for the deterministic FIFO tie-break at equal timestamps: a
// burst of same-time events and events scheduled from inside callbacks onto
// the same timestamp must fire in monotonic sequence order. Parallel-driven
// scenario sweeps rely on this — a candidate's trace must not depend on
// heap internals.
func TestEngineEqualTimeTieBreakRegression(t *testing.T) {
	e := NewEngine()
	var order []string
	// Ten events at t=5.
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(5, func() { order = append(order, fmt.Sprintf("a%d", i)) })
	}
	// An earlier event that schedules two more events AT t=5 (zero delay at
	// fire time would land earlier; use exact remaining delay).
	e.MustSchedule(2, func() {
		e.MustSchedule(3, func() { order = append(order, "nested-1") })
		e.MustSchedule(3, func() { order = append(order, "nested-2") })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "nested-1", "nested-2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("equal-time order = %v, want %v (diverges at %d)", order, want, i)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []float64
	e.MustSchedule(1, func() {
		trace = append(trace, e.Now())
		e.MustSchedule(2, func() {
			trace = append(trace, e.Now())
		})
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Errorf("trace = %v, want [1 3]", trace)
	}
}

func TestEngineScheduleErrors(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay accepted")
	}
	if err := e.Schedule(math.Inf(1), func() {}); err == nil {
		t.Error("Inf delay accepted")
	}
	if err := e.Schedule(1, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.MustSchedule(d, func() { fired = append(fired, d) })
	}
	if err := e.Run(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want events at 1 and 2", fired)
	}
	if len(e.heap) != 2 {
		t.Errorf("pending = %d, want 2", len(e.heap))
	}
	// Resume to completion.
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Errorf("after resume fired = %v", fired)
	}
}

func TestEngineMaxEvents(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.MustSchedule(1, loop) }
	e.MustSchedule(1, loop)
	if err := e.RunAll(); err == nil {
		t.Error("self-perpetuating simulation should trip MaxEvents")
	}
}

// Property: random schedules always fire in non-decreasing time order.
func TestEngineMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var times []float64
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			e.MustSchedule(rng.Float64()*100, func() { times = append(times, e.Now()) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(times) != n {
			t.Fatalf("fired %d of %d", len(times), n)
		}
		if !sort.Float64sAreSorted(times) {
			t.Fatalf("non-monotone firing times")
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		rng := rand.New(rand.NewSource(99))
		var times []float64
		for i := 0; i < 200; i++ {
			e.MustSchedule(rng.Float64()*10, func() {
				times = append(times, e.Now())
				if rng.Float64() < 0.3 {
					e.MustSchedule(rng.Float64(), func() { times = append(times, e.Now()) })
				}
			})
		}
		_ = e.RunAll()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
