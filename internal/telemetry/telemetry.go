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
// exp.run / exp.get / exp.put spans, and its sharded executor counts
// <ns>.shards.hit / <ns>.shards.exec (report.shards.*, corpus.shards.*,
// scengen.shards.*), so cache behaviour lands in the same canonical
// expositions as everything else.
package telemetry

import (
	"sync"

	"repro/internal/clock"
)

// Registry holds named metrics. The zero value is not usable; call
// NewWithClock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]float64
	spans    []Span
	// SeriesCap bounds the samples kept per series (oldest dropped).
	SeriesCap int
	// SpanCap bounds the trace records kept (oldest dropped).
	SpanCap int
}

// NewWithClock returns an empty registry keeping up to 4096 samples per
// series and 4096 spans. The registry stamps no update itself: span times
// come from the clock given to StartSpan, so the clock argument is unused
// and stays only so that callers building a registry beside their clock
// keep compiling.
func NewWithClock(clock.Clock) *Registry {
	return &Registry{
		counters:  map[string]int64{},
		gauges:    map[string]float64{},
		series:    map[string][]float64{},
		SeriesCap: 4096,
		SpanCap:   4096,
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

// Observe appends a sample to a series (e.g. a latency). Appending is amortized O(1): the backing slice may grow to
// twice SeriesCap before the window is copied down in one step, so a
// million-observation stream (the serve load generator) costs one slot write
// per sample instead of an O(SeriesCap) shift on every overflowing append.
// Readers never see the slack — every accessor goes through window, which
// exposes only the trailing SeriesCap samples.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := append(r.series[name], v)
	if r.SeriesCap > 0 && len(s) >= 2*r.SeriesCap {
		if cap(s) > 4*r.SeriesCap {
			// Oversized backing array (e.g. SeriesCap was lowered after
			// samples accumulated): copy into a fresh slice so the old
			// array can be collected instead of being pinned by a
			// re-slice forever.
			fresh := make([]float64, r.SeriesCap)
			copy(fresh, s[len(s)-r.SeriesCap:])
			s = fresh
		} else {
			// Shift the window down in place: one O(SeriesCap) copy per
			// SeriesCap appends, no allocation.
			copy(s, s[len(s)-r.SeriesCap:])
			s = s[:r.SeriesCap]
		}
	}
	r.series[name] = s
}

// window returns the visible tail of a bounded series: the most recent
// SeriesCap samples. The amortized trim in Observe can leave up to one extra
// window of dropped samples in the backing array; every reader routes
// through here so that slack is never observable. Callers hold r.mu.
func (r *Registry) window(s []float64) []float64 {
	if r.SeriesCap > 0 && len(s) > r.SeriesCap {
		return s[len(s)-r.SeriesCap:]
	}
	return s
}

// values copies the sample values of a series into a fresh slice. Callers
// hold r.mu. The copy is load-bearing: PromText sorts what it receives, and
// handing it the live backing array would silently reorder the registry's
// observation history (the aliasing bug pinned by TestPromTextDoesNotMutate).
func values(s []float64) []float64 {
	return append([]float64(nil), s...)
}
