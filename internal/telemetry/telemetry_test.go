package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	r.Inc("requests", 1)
	r.Inc("requests", 2)
	if got := r.Counter("requests"); got != 3 {
		t.Errorf("counter = %d", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d", got)
	}
	r.SetGauge("queue_depth", 7)
	r.SetGauge("queue_depth", 5)
	if out := r.PromText(); !strings.Contains(out, "# TYPE queue_depth gauge\nqueue_depth 5\n") {
		t.Errorf("gauge not 5:\n%s", out)
	}
}

func TestSeriesCap(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	for i := 0; i < seriesCap+90; i++ {
		r.Observe("s", float64(i))
	}
	if vs := seriesValues(r, "s"); len(vs) != seriesCap || vs[0] != 90 {
		t.Errorf("cap not applied: %d values from %v", len(vs), vs[0])
	}
}

func TestConcurrentSafety(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Inc("n", 1)
				r.Observe("v", float64(j))
				r.SetGauge("g", float64(j))
				_ = r.PromText()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Errorf("counter = %d", got)
	}
}

// Regression: trimming must not retain the grown backing array. The
// capacity of a capped series stays bounded (the amortized trim allows up to
// one hidden window of slack) no matter how many samples stream through, and
// readers only ever see the trailing seriesCap samples.
func TestSeriesCapacityBounded(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	for i := 0; i < 100_000; i++ {
		r.Observe("s", float64(i))
	}
	r.mu.Lock()
	c := cap(r.series["s"])
	n := len(r.series["s"])
	r.mu.Unlock()
	if n >= 2*seriesCap {
		t.Errorf("len = %d, want < %d (amortized trim never ran)", n, 2*seriesCap)
	}
	if c > 4*seriesCap {
		t.Errorf("cap = %d, want <= %d (backing array retained)", c, 4*seriesCap)
	}
	vs := seriesValues(r, "s")
	if len(vs) != seriesCap || vs[0] != 100_000-seriesCap || vs[seriesCap-1] != 99_999 {
		t.Errorf("visible window = %d values from %v, want the last %d samples", len(vs), vs[0], seriesCap)
	}
}

// The amortized trim must cost O(1) per observation, not O(seriesCap): a
// million observations into a capped series amortize to one window copy per
// seriesCap appends. This is what makes per-request latency series viable
// on the serve hot path.
func TestObserveAmortizedTrim(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	// Warm past the first overflow, then measure: if every append shifted
	// the full window (the old behaviour), 200k observations would copy
	// ~3 GB and this test would crawl; the real assertion is the window
	// contents staying exact.
	for i := 0; i < 200_000; i++ {
		r.Observe("s", float64(i))
	}
	vs := seriesValues(r, "s")
	if len(vs) != 4096 {
		t.Fatalf("window = %d values, want 4096", len(vs))
	}
	for i, v := range vs {
		if want := float64(200_000 - 4096 + i); v != want {
			t.Fatalf("window[%d] = %v, want %v", i, v, want)
		}
	}
}

// Race-detector hammer: every public entry point concurrently. The series
// and the spans start just short of their first trim, so the hammer trims
// both while readers run.
func TestRegistryRaceHammer(t *testing.T) {
	sim := clock.NewSim(1)
	r := NewWithClock(sim)
	for i := 0; i < 2*seriesCap-32; i++ {
		r.Observe("lat", float64(i))
	}
	for i := 0; i < 2*spanCap-32; i++ {
		r.StartSpan(sim, "fill", "span").End(nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				switch (g + j) % 6 {
				case 0:
					r.Inc("n", 1)
				case 1:
					r.Observe("lat", float64(j))
				case 2:
					r.SetGauge("g", float64(j))
					sim.Advance(time.Microsecond)
				case 3:
					_ = r.Counter("n")
				case 4:
					_ = r.PromText()
				case 5:
					sp := r.StartSpan(sim, "hammer", "span")
					sp.End(nil)
					_ = r.Spans()
				}
			}
		}()
	}
	wg.Wait()
	if len(r.Spans()) == 0 || r.Counter("n") == 0 {
		t.Error("hammer recorded nothing")
	}
}

// seriesValues returns the visible window of a series, oldest first.
func seriesValues(r *Registry, name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), tail(r.series[name], seriesCap)...)
}
