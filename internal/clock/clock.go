// Package clock is the single place in the repository that is allowed to
// read wall-clock time. Every other layer — the workflow engine, the FaaS
// platform, the telemetry registry, the orchestrator — receives a Clock and
// never touches the time package directly (`make audit` enforces this with
// a grep gate).
//
// The point is the reproducibility contract DESIGN.md §4 promises: run
// artifacts such as provenance JSON and metric expositions must be
// byte-identical across runs and worker counts. A Sim clock makes every
// timestamp a pure function of the seed and the explicit Advance/Sleep
// calls, so observability output becomes a deterministic artifact instead
// of a wall-clock diff on every execution — the nondeterministic-artifact
// problem both Diercks et al. and Tutko et al. flag as the main obstacle to
// reproducible workflow studies.
package clock

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
)

// Epoch is the origin of simulated time: Sim clocks start here, and the
// continuum engine's float64 sim-seconds map onto time.Time as offsets from
// it. The date is the paper's publication week (SC-W 2023).
var Epoch = time.Date(2023, time.November, 12, 0, 0, 0, 0, time.UTC)

// Clock is the time source injected into every simulator and the telemetry
// layer.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Sleep blocks (or simulates blocking) for d. Implementations where
	// time is driven externally (the continuum engine) may treat this as a
	// no-op; Sim advances its clock by d.
	Sleep(d time.Duration)
}

// Real reads the wall clock. It is the only Clock backed by time.Now.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// System is the process-wide wall clock.
var System Clock = Real{}

// Or returns c, or System when c is nil — the idiom layers use so that a
// zero-value "no clock configured" field means wall-clock behaviour.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

// Seconds converts a time to simulated seconds since Epoch (the unit the
// continuum engine and the schedule simulators use).
func Seconds(t time.Time) float64 { return t.Sub(Epoch).Seconds() }

// FromSeconds converts simulated seconds since Epoch to a time.
func FromSeconds(s float64) time.Time {
	return Epoch.Add(time.Duration(s * float64(time.Second)))
}

// Sim is a deterministic, manual-advance clock. It starts at Epoch and only
// moves when Advance or Sleep is called, so any timestamp read through it is
// a pure function of the call sequence — never of the machine or the
// scheduler. It is safe for concurrent use.
//
// Monotonicity is guaranteed: the clock never moves backwards (negative
// advances are programmer errors and panic).
type Sim struct {
	mu        sync.Mutex
	now       time.Time
	seed      int64
	jitterMax time.Duration
}

// NewSim returns a Sim at Epoch. The seed parameterizes WorkDuration's
// jitter stream; two Sims with the same seed model identical workloads.
func NewSim(seed int64) *Sim {
	return &Sim{now: Epoch, seed: seed}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock by advancing simulated time by d instantly: a
// retry backoff of 30s costs nothing to test but is still visible in the
// simulated timeline.
func (s *Sim) Sleep(d time.Duration) {
	if d > 0 {
		s.Advance(d)
	}
}

// Advance moves the clock forward by d. A negative d is a programmer error
// (the clock is monotonic) and panics.
func (s *Sim) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %v", d))
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// SetJitter sets the maximum modeled work duration returned by
// WorkDuration. Zero (the default) disables jitter.
func (s *Sim) SetJitter(max time.Duration) {
	if max < 0 {
		panic(fmt.Sprintf("clock: negative jitter %v", max))
	}
	s.mu.Lock()
	s.jitterMax = max
	s.mu.Unlock()
}

// WorkDuration returns a deterministic pseudo-random duration in
// [0, jitterMax) for the given key — the seedable jitter used to model work
// durations (e.g. a step body advancing the clock by its own modeled cost).
// The value depends only on (seed, key): never on call order, goroutine, or
// worker count, which is what keeps jittered simulations reproducible under
// parallelism.
func (s *Sim) WorkDuration(key string) time.Duration {
	s.mu.Lock()
	max := s.jitterMax
	seed := s.seed
	s.mu.Unlock()
	if max <= 0 {
		return 0
	}
	// FNV-1a over the key, folded with the seed through rng.Split (same
	// construction as par.SplitSeed).
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return time.Duration(rng.Split(uint64(seed), h) % uint64(max))
}
