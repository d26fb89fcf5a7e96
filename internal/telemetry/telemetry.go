// Package telemetry implements the performance-monitoring layer the
// paper's discussion (Section 4, Q1) flags as missing from the surveyed
// workflow ecosystem: a small, concurrency-safe metrics registry with
// counters, gauges, sample series, span-style trace records (trace.go) and
// a Prometheus-text-format exposition (prom.go) — enough for WMS components
// (schedulers, runtimes, simulators) to expose their behaviour uniformly.
//
// Spans are the only timestamped records, and they read the clock.Clock
// passed to StartSpan, so spans timed by a clock.Sim are byte-identical
// across runs — the reproducibility contract of DESIGN.md §4.
//
// Well-known instrument names: the experiment registry (internal/exp)
// counts its whole-result memo as exp.hits / exp.misses / exp.bytes with
// one exp.run span per run, and its sharded executor counts
// <ns>.shards.hit / <ns>.shards.exec (report.shards.*, corpus.shards.*,
// scengen.shards.*), so cache behaviour lands in the same canonical
// expositions as everything else.
package telemetry

import (
	"sync"

	"repro/internal/clock"
)

const (
	// seriesCap bounds the samples kept per series (oldest dropped).
	seriesCap = 4096
	// spanCap bounds the trace records kept (oldest dropped).
	spanCap = 4096
)

// Registry holds named metrics. The zero value is not usable; call
// NewWithClock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]float64
	spans    []Span
}

// NewWithClock returns an empty registry keeping up to seriesCap samples
// per series and spanCap spans. The registry stamps no update itself: span
// times come from the clock given to StartSpan, so the clock argument is
// unused and stays only so that callers building a registry beside their
// clock keep compiling.
func NewWithClock(clock.Clock) *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		series:   map[string][]float64{},
	}
}

// Inc adds delta to a counter (creating it at zero).
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
}

// Counter reads a counter.
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge records the current value of a gauge.
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// DeclareSeries registers an (empty) series so it appears in the Prometheus
// exposition even before the first observation — a metric
// that silently vanishes when idle is indistinguishable from one that was
// never wired up.
func (r *Registry) DeclareSeries(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.series[name]; !ok {
		r.series[name] = nil
	}
}

// Observe appends a sample to a series (e.g. a latency), keeping the last
// seriesCap.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name] = trim(append(r.series[name], v), seriesCap)
}

// trim bounds s to a window of its last n elements, amortized O(1) per
// append: s grows to twice n before one in-place copy shifts the window
// down, so a million-sample stream (the serve load generator) costs one
// slot write per sample and no allocation once grown. Readers go through
// tail, so the dropped slack is never observable.
func trim[E any](s []E, n int) []E {
	if len(s) >= 2*n {
		copy(s, s[len(s)-n:])
		s = s[:n]
	}
	return s
}

// tail returns the visible window of a trimmed slice: its last n elements.
func tail[E any](s []E, n int) []E {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
