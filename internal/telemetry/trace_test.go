package telemetry

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestStartSpanEnd(t *testing.T) {
	sim := clock.NewSim(1)
	r := NewWithClock(sim)
	sp := r.StartSpan(sim, "workflow.step", "ingest")
	sim.Advance(1500 * time.Millisecond)
	sp.End(nil)

	failed := r.StartSpan(sim, "workflow.step", "train")
	sim.Advance(time.Second)
	failed.End(errors.New("boom"))

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Name != "ingest" || spans[0].End.Sub(spans[0].Start) != 1500*time.Millisecond || spans[0].Err != "" {
		t.Errorf("first span = %+v", spans[0])
	}
	if spans[1].Name != "train" || spans[1].Err != "boom" {
		t.Errorf("second span = %+v", spans[1])
	}
}

// Spans render in canonical (Start, Kind, Name) order regardless of the
// order they were recorded in.
func TestSpansCanonicalOrder(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	at := func(s, e float64) (time.Time, time.Time) {
		return clock.FromSeconds(s), clock.FromSeconds(e)
	}
	b0, b1 := at(2, 3)
	a0, a1 := at(1, 5)
	r.RecordSpan(Span{Kind: "k", Name: "later", Start: b0, End: b1})
	r.RecordSpan(Span{Kind: "k", Name: "earlier", Start: a0, End: a1})
	r.RecordSpan(Span{Kind: "k", Name: "also-at-1", Start: a0, End: a1})
	spans := r.Spans()
	if spans[0].Name != "also-at-1" || spans[1].Name != "earlier" || spans[2].Name != "later" {
		t.Errorf("order = %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestSpanCapBounded(t *testing.T) {
	r := NewWithClock(clock.NewSim(1))
	const total = 2*spanCap + 92
	for i := 0; i < total; i++ {
		r.RecordSpan(Span{Kind: "k", Name: "n", Start: clock.FromSeconds(float64(i)), End: clock.FromSeconds(float64(i) + 1)})
	}
	if got := len(r.Spans()); got != spanCap {
		t.Errorf("spans retained = %d, want %d", got, spanCap)
	}
	r.mu.Lock()
	c := cap(r.spans)
	r.mu.Unlock()
	// The amortized trim allows up to one hidden window of slack beyond the
	// visible spanCap spans.
	if c > 4*spanCap {
		t.Errorf("span capacity %d exceeds bound %d", c, 4*spanCap)
	}
	// Oldest dropped: the first retained span is the spanCap-th from the end.
	if got := clock.Seconds(r.Spans()[0].Start); got != total-spanCap {
		t.Errorf("first retained span at %v, want %d", got, total-spanCap)
	}
}
