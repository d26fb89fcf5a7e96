package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// PromText renders the registry in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, series as
// summaries with p50/p95/p99 quantiles plus _sum and _count. Metric names
// are sanitized to the Prometheus charset (dots become underscores).
//
// The rendering is canonical: metrics sort by name, quantiles and sums are
// computed over value-sorted samples (so non-associative float addition
// cannot leak observation order), and no timestamps are emitted. Two
// registries holding the same metric values therefore render byte-
// identically, regardless of worker count or interleaving — the exposition
// is itself a reproducible artifact.
func (r *Registry) PromText() string {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	series := make(map[string][]float64, len(r.series))
	for k, s := range r.series {
		// Copy the visible window into a private slice: the sort below
		// must never touch the registry's backing array, or rendering
		// metrics would silently reorder the observation history every
		// caller after the first sees (TestPromTextDoesNotMutate).
		series[k] = append([]float64(nil), tail(s, seriesCap)...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, counters[k])
	}
	for _, k := range sortedKeys(gauges) {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(gauges[k]))
	}
	for _, k := range sortedKeys(series) {
		n := promName(k)
		vs := series[k]
		sort.Float64s(vs) // canonical order: quantiles and Kahan sum become order-invariant
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			qv := "NaN"
			if len(vs) > 0 {
				p, err := stats.Percentile(vs, q*100)
				if err == nil {
					qv = promFloat(p)
				}
			}
			fmt.Fprintf(&b, "%s{quantile=%q} %s\n", n, promFloat(q), qv)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(stats.Sum(vs)))
		fmt.Fprintf(&b, "%s_count %d\n", n, len(vs))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promFloat formats a float in the shortest round-trippable form.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promName maps a metric name onto the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; every other rune becomes an underscore.
func promName(s string) string {
	var b strings.Builder
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(c)
	}
	return b.String()
}
