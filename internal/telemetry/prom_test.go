package telemetry

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/par"
)

func TestPromTextFormat(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	r.Inc("faas.invocations", 42)
	r.SetGauge("nodes.active", 3)
	for i := 1; i <= 100; i++ {
		r.Observe("faas.response_s", float64(i))
	}
	out := r.PromText()
	for _, want := range []string{
		"# TYPE faas_invocations counter\nfaas_invocations 42\n",
		"# TYPE nodes_active gauge\nnodes_active 3\n",
		"# TYPE faas_response_s summary\n",
		`faas_response_s{quantile="0.5"} 50.5`,
		`faas_response_s{quantile="0.95"} 95.05`,
		`faas_response_s{quantile="0.99"} 99.01`,
		"faas_response_s_sum 5050\n",
		"faas_response_s_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("PromText missing %q:\n%s", want, out)
		}
	}
}

func TestPromTextEmptySeriesVisible(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	r.DeclareSeries("idle.metric")
	out := r.PromText()
	for _, want := range []string{
		"# TYPE idle_metric summary",
		`idle_metric{quantile="0.5"} NaN`,
		"idle_metric_sum 0",
		"idle_metric_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty series not exposed, missing %q:\n%s", want, out)
		}
	}
}

// The exposition is a canonical rendering: observing the same multiset of
// samples in any order — here, concurrently on 1 vs 8 par workers — yields
// byte-identical PromText.
func TestPromTextWorkerCountInvariant(t *testing.T) {
	render := func(workers int) string {
		r := NewWithClock(clock.NewSim(7))
		par.For(2048, func(i int) {
			r.Observe("lat.s", float64(i%97)*0.125)
			r.Inc("ops", 1)
		}, par.Workers(workers))
		return r.PromText()
	}
	want := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != want {
			t.Errorf("PromText differs between 1 and %d workers:\n--- want\n%s--- got\n%s", w, want, got)
		}
	}
}

// Regression: PromText sorts sample values to render canonical quantiles.
// That sort must operate on a private copy — if it aliased the registry's
// backing array, the first rendering would silently reorder the observation
// history every later reader sees.
func TestPromTextDoesNotMutate(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	in := []float64{3, 1, 2}
	for _, v := range in {
		r.Observe("s", v)
	}
	_ = r.PromText()
	_ = r.PromText()
	got := seriesValues(r, "s")
	for i, v := range got {
		if v != in[i] {
			t.Fatalf("observation order mutated by PromText: sample[%d] = %v, want %v (all: %v)", i, v, in[i], got)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"faas.response_s":  "faas_response_s",
		"faas.served.n-1":  "faas_served_n_1",
		"9lives":           "_lives",
		"ok:subsystem_t":   "ok:subsystem_t",
		"sp ace/and+more€": "sp_ace_and_more_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
