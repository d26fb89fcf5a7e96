package telemetry

import (
	"sort"
	"time"

	"repro/internal/clock"
)

// Span is one span-style trace record: a named unit of work (a workflow
// step, a FaaS invocation, an orchestrated step) with a start and end time
// read from a clock.Clock. With a simulated clock the timestamps are
// simulation times, so traces are byte-stable artifacts.
type Span struct {
	// Kind groups spans by the subsystem that emitted them, e.g.
	// "workflow.step" or "faas.invoke".
	Kind string
	// Name identifies the unit of work, e.g. the step ID or function name.
	Name  string
	Start time.Time
	End   time.Time
	// Err is the failure message, empty on success.
	Err string
}

// RecordSpan appends a finished span to the registry, keeping the last
// spanCap (trim's amortized window, as for series).
func (r *Registry) RecordSpan(sp Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = trim(append(r.spans, sp), spanCap)
}

// ActiveSpan is an in-flight span returned by StartSpan.
type ActiveSpan struct {
	r  *Registry
	c  clock.Clock
	sp Span
}

// StartSpan begins a span at c.Now(). Call End to finish and record it.
func (r *Registry) StartSpan(c clock.Clock, kind, name string) *ActiveSpan {
	c = clock.Or(c)
	return &ActiveSpan{r: r, c: c, sp: Span{Kind: kind, Name: name, Start: c.Now()}}
}

// End finishes the span at the clock's current time and records it; err
// (may be nil) becomes the span's failure message.
func (a *ActiveSpan) End(err error) {
	a.sp.End = a.c.Now()
	if err != nil {
		a.sp.Err = err.Error()
	}
	a.r.RecordSpan(a.sp)
}

// Spans returns the retained trace records — the most recent spanCap —
// sorted by (Start, Kind, Name, End): a canonical order independent of the
// (possibly concurrent) recording order, so renderings of the same span
// multiset are identical.
func (r *Registry) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), tail(r.spans, spanCap)...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if !a.End.Equal(b.End) {
			return a.End.Before(b.End)
		}
		return a.Err < b.Err
	})
	return out
}
