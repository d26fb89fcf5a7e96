// Package telemetry implements the performance-monitoring layer the
// paper's discussion (Section 4, Q1) flags as missing from the surveyed
// workflow ecosystem: a small, concurrency-safe metrics registry with
// counters, gauges, timestamped sample series, span-style trace records
// (trace.go), snapshots, a text rendering, and a Prometheus-text-format
// exposition (prom.go) — enough for WMS components (schedulers, runtimes,
// simulators) to expose their behaviour uniformly.
//
// All timestamps are read through an injected clock.Clock (clock.System by
// default), so a registry wired to a clock.Sim or a continuum engine clock
// produces byte-identical output across runs — the reproducibility contract
// of DESIGN.md §4.
//
// Well-known instrument names: the workflow runner emits workflow.* counters
// and step spans; the experiment registry (internal/exp) counts its
// whole-result memo as exp.hits / exp.misses / exp.bytes with exp.run /
// exp.get / exp.put spans, and its sharded executor counts
// <ns>.shards.hit / <ns>.shards.exec (report.shards.*, corpus.shards.*,
// scengen.shards.*), so cache behaviour lands in the same canonical
// expositions as everything else.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Sample is one timestamped observation in a series.
type Sample struct {
	V  float64
	At time.Time
}

// Registry holds named metrics. The zero value is not usable; call New.
type Registry struct {
	mu       sync.Mutex
	clk      clock.Clock
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]Sample
	last     map[string]time.Time
	spans    []Span
	// SeriesCap bounds the samples kept per series (oldest dropped).
	SeriesCap int
	// SpanCap bounds the trace records kept (oldest dropped).
	SpanCap int
}

// New returns an empty registry on the system (wall) clock, keeping up to
// 4096 samples per series and 4096 spans.
func New() *Registry { return NewWithClock(clock.System) }

// NewWithClock returns an empty registry stamping updates with c. Pass a
// *clock.Sim or a continuum engine clock to make every timestamp — and
// hence every rendering — deterministic.
func NewWithClock(c clock.Clock) *Registry {
	return &Registry{
		clk:       clock.Or(c),
		counters:  map[string]int64{},
		gauges:    map[string]float64{},
		series:    map[string][]Sample{},
		last:      map[string]time.Time{},
		SeriesCap: 4096,
		SpanCap:   4096,
	}
}

// Inc adds delta to a counter (creating it at zero).
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
	r.last[name] = r.clk.Now()
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
	r.last[name] = r.clk.Now()
}

// Gauge reads a gauge (0 if unset).
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// DeclareSeries registers an (empty) series so it appears in snapshots and
// the Prometheus exposition even before the first observation — a metric
// that silently vanishes when idle is indistinguishable from one that was
// never wired up.
func (r *Registry) DeclareSeries(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.series[name]; !ok {
		r.series[name] = nil
	}
}

// Observe appends a sample to a series (e.g. a latency), stamped with the
// registry clock. Appending is amortized O(1): the backing slice may grow to
// twice SeriesCap before the window is copied down in one step, so a
// million-observation stream (the serve load generator) costs one slot write
// per sample instead of an O(SeriesCap) shift on every overflowing append.
// Readers never see the slack — every accessor goes through window, which
// exposes only the trailing SeriesCap samples.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clk.Now()
	s := append(r.series[name], Sample{V: v, At: now})
	if r.SeriesCap > 0 && len(s) >= 2*r.SeriesCap {
		if cap(s) > 4*r.SeriesCap {
			// Oversized backing array (e.g. SeriesCap was lowered after
			// samples accumulated): copy into a fresh slice so the old
			// array can be collected instead of being pinned by a
			// re-slice forever.
			fresh := make([]Sample, r.SeriesCap)
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
	r.last[name] = now
}

// window returns the visible tail of a bounded series: the most recent
// SeriesCap samples. The amortized trim in Observe can leave up to one extra
// window of dropped samples in the backing array; every reader routes
// through here so that slack is never observable. Callers hold r.mu.
func (r *Registry) window(s []Sample) []Sample {
	if r.SeriesCap > 0 && len(s) > r.SeriesCap {
		return s[len(s)-r.SeriesCap:]
	}
	return s
}

// Samples returns a copy of a series' visible timestamped samples (nil if
// the series does not exist).
func (r *Registry) Samples(name string) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return nil
	}
	return append([]Sample(nil), r.window(s)...)
}

// SeriesValues returns a copy of a series' visible sample values, oldest
// first (nil if the series does not exist). The slice is the caller's to
// sort or mutate — it never aliases the registry's backing array.
func (r *Registry) SeriesValues(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return nil
	}
	return values(r.window(s))
}

// LastUpdate returns when a metric was last written (zero time if never).
func (r *Registry) LastUpdate(name string) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last[name]
}

// values extracts the sample values of a series into a fresh slice. Callers
// hold r.mu. The copy is load-bearing: PromText sorts what it receives, and
// handing it the live backing array would silently reorder the registry's
// observation history (the aliasing bug pinned by TestPromTextDoesNotMutate).
func values(s []Sample) []float64 {
	out := make([]float64, len(s))
	for i, smp := range s {
		out[i] = smp.V
	}
	return out
}

// Summary returns the descriptive statistics of a series' visible window.
func (r *Registry) Summary(name string) (stats.Summary, error) {
	r.mu.Lock()
	samples := values(r.window(r.series[name]))
	r.mu.Unlock()
	return stats.Summarize(samples)
}

// Snapshot is an immutable copy of the registry's state.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Series   map[string]stats.Summary
	// LastUpdate stamps every metric's most recent write.
	LastUpdate map[string]time.Time
	// SpanCount is the number of retained trace records.
	SpanCount int
}

// Snapshot captures the current state. Every registered series appears:
// one that was declared but never observed yields a zero-count Summary
// rather than silently vanishing from the snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Series:     make(map[string]stats.Summary, len(r.series)),
		LastUpdate: make(map[string]time.Time, len(r.last)),
		SpanCount:  len(r.spanWindow()),
	}
	for k, v := range r.counters {
		snap.Counters[k] = v
	}
	for k, v := range r.gauges {
		snap.Gauges[k] = v
	}
	for k, s := range r.series {
		sum, err := stats.Summarize(values(r.window(s)))
		if err != nil {
			// Empty (declared-only) series: keep a zero-count entry so the
			// metric stays visible instead of being dropped without trace.
			sum = stats.Summary{}
		}
		snap.Series[k] = sum
	}
	for k, t := range r.last {
		snap.LastUpdate[k] = t
	}
	return snap
}

// String renders the snapshot sorted by metric name.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "counter %-32s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "gauge   %-32s %g\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Series {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "series  %-32s %s\n", k, s.Series[k])
	}
	return b.String()
}
