package orchestrator

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/continuum"
	"repro/internal/telemetry"
)

func TestSimulateObserved(t *testing.T) {
	wf := pipelineWF()
	inf := continuum.Testbed()
	p, err := DataLocal{}.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewWithClock(clock.NewSim(1))
	s, err := SimulateObserved(wf, inf, p, "data-local", reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("data-local.orchestrator.steps"); got != 4 {
		t.Errorf("steps counter = %d, want 4", got)
	}
	prom := reg.PromText()
	if want := "\ndata_local_orchestrator_makespan_s " + strconv.FormatFloat(s.Makespan, 'g', -1, 64) + "\n"; !strings.Contains(prom, want) {
		t.Errorf("makespan gauge: want %q in\n%s", want, prom)
	}
	if want := "\ndata_local_orchestrator_step_s_count 4\n"; !strings.Contains(prom, want) {
		t.Errorf("step series: want %q in\n%s", want, prom)
	}
	spans := reg.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want one per step", len(spans))
	}
	for _, sp := range spans {
		if sp.Kind != "data-local.orchestrator.step" {
			t.Errorf("span kind = %q", sp.Kind)
		}
		if !strings.Contains(sp.Name, "@") {
			t.Errorf("span name %q lacks step@node form", sp.Name)
		}
	}
	// The first span on the timeline is the pipeline's entry step.
	if !strings.HasPrefix(spans[0].Name, "ingest@") {
		t.Errorf("first span = %q, want ingest@*", spans[0].Name)
	}
}

// The schedule and every observability artifact derived from it are
// byte-identical across runs.
func TestSimulateObservedDeterministic(t *testing.T) {
	render := func() (string, string) {
		wf := pipelineWF()
		inf := continuum.Testbed()
		p, err := DataLocal{}.Place(wf, inf)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewWithClock(clock.NewSim(9))
		if _, err := SimulateObserved(wf, inf, p, "data-local", reg); err != nil {
			t.Fatal(err)
		}
		return reg.PromText(), fmt.Sprint(reg.Spans())
	}
	p1, t1 := render()
	p2, t2 := render()
	if p1 != p2 {
		t.Errorf("PromText differs across runs:\n--- first\n%s--- second\n%s", p1, p2)
	}
	if t1 != t2 {
		t.Errorf("spans differ across runs")
	}
}

// A nil registry is a no-op passthrough to Simulate.
func TestSimulateObservedNilRegistry(t *testing.T) {
	wf := pipelineWF()
	inf := continuum.Testbed()
	p, err := DataLocal{}.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SimulateObserved(wf, inf, p, "data-local", nil)
	if err != nil || s == nil || s.Makespan <= 0 {
		t.Errorf("schedule = %+v, err = %v", s, err)
	}
}
