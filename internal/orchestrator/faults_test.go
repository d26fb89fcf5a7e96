package orchestrator

import (
	"testing"

	"repro/internal/continuum"
)

func TestFaultModelValidate(t *testing.T) {
	bad := []FaultModel{
		{FailureProb: -0.1},
		{FailureProb: 1},
		{FailureProb: 0.1, MaxRetries: -1},
	}
	for i, fm := range bad {
		if err := fm.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

// faultSweep runs a one-candidate fault sweep of the pipeline on the
// standard testbed under DataLocal placement.
func faultSweep(t *testing.T, prob float64, maxRetries int, seed int64) (*FaultyStats, error) {
	t.Helper()
	pts, err := SweepFaults(sweepWF(), continuum.Testbed, DataLocal{}, []float64{prob}, maxRetries, seed)
	if err != nil {
		return nil, err
	}
	return pts[0].Stats, nil
}

// plainPipeline simulates the pipeline without faults under the placement
// the sweeps use.
func plainPipeline(t *testing.T) *Schedule {
	t.Helper()
	wf := pipelineWF()
	inf := continuum.Testbed()
	p, err := DataLocal{}.Place(wf, inf)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(wf, inf, p, "data-local")
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

func TestZeroFaultMatchesPlainSimulation(t *testing.T) {
	plain := plainPipeline(t)
	faulty, err := faultSweep(t, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failures != 0 {
		t.Errorf("failures = %d", faulty.Failures)
	}
	if faulty.Schedule.Makespan != plain.Makespan {
		t.Errorf("fault-free makespan %v != plain %v", faulty.Schedule.Makespan, plain.Makespan)
	}
}

func TestFaultsExtendMakespan(t *testing.T) {
	plain := plainPipeline(t)
	// With 40% failure probability some step almost surely retries.
	faulty, err := faultSweep(t, 0.4, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Failures == 0 {
		t.Fatal("no failures injected at p=0.4")
	}
	if faulty.Schedule.Makespan <= plain.Makespan {
		t.Errorf("faulty makespan %v not above fault-free %v", faulty.Schedule.Makespan, plain.Makespan)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	// p=0.9 with zero retries: some step fails almost surely.
	if _, err := faultSweep(t, 0.9, 0, 1); err == nil {
		t.Error("retry exhaustion not reported")
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (float64, int) {
		fs, err := faultSweep(t, 0.3, 10, 7)
		if err != nil {
			t.Fatal(err)
		}
		return fs.Schedule.Makespan, fs.Failures
	}
	m1, f1 := run()
	m2, f2 := run()
	if m1 != m2 || f1 != f2 {
		t.Error("fault injection not deterministic under fixed seed")
	}
}
