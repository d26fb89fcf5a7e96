package scengen

// The property harness: instead of goldens (there are 1024 generated
// configurations, and their exact numbers are not the point), every
// configuration is checked against invariant classes — run-to-run
// determinism, conservation of work/energy/votes (CheckInvariants inside
// RunConfig), and monotonicity under added faults. The sampling stride is
// build-tagged (size_default_test.go / size_race_test.go): the default
// build covers every configuration, the race build every 8th.

import (
	"context"
	"testing"

	"repro/internal/scenarios"
)

// Every sampled configuration runs green, satisfies the conservation
// invariants, and reproduces its observation vector bit-for-bit on a
// fresh environment with the same seed.
func TestConfigInvariantsAndDeterminism(t *testing.T) {
	checked := 0
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < f.Size; i += propStride {
				cfg := f.Config(testEnv(0, nil), i)
				a, err := RunConfig(context.Background(), testEnv(0, nil), cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := RunConfig(context.Background(), testEnv(0, nil), cfg)
				if err != nil {
					t.Fatal(err)
				}
				ka, kb := a.ObsKeys(), b.ObsKeys()
				if len(ka) != len(kb) {
					t.Fatalf("%s[%d]: observation sets differ: %v vs %v", f.Name, i, ka, kb)
				}
				for _, k := range ka {
					if a.Obs(k) != b.Obs(k) {
						t.Fatalf("%s[%d]: %s = %v vs %v across identical envs", f.Name, i, k, a.Obs(k), b.Obs(k))
					}
				}
			}
		})
		checked += (f.Size + propStride - 1) / propStride
	}
	if propStride == 1 && checked < 1000 {
		t.Fatalf("harness covered %d configurations, want ≥ 1000", checked)
	}
}

// Monotonicity under added faults: raising the failure probability of a
// generated fault plan (same stream, same workflow) never removes a
// failure — attempts, failures, and inflated work are non-decreasing.
// This holds by construction: InjectFaults draws one positional uniform
// per (step, attempt), so the fault set at p is a subset of the fault set
// at p' > p.
func TestFaultMonotonicity(t *testing.T) {
	f := family(t, "faults")
	env := testEnv(0, nil)
	for i := 0; i < f.Size; i += propStride {
		cfg := f.Config(env, i)
		base, ok := cfg.Ops[1].(scenarios.InjectFaults)
		if !ok {
			t.Fatalf("faults[%d]: op 1 is %T", i, cfg.Ops[1])
		}
		lo, err := RunConfig(context.Background(), testEnv(0, nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		raised := base
		raised.Prob = min(base.Prob+0.2, 0.95)
		cfg.Ops[1] = raised
		hi, err := RunConfig(context.Background(), testEnv(0, nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"faults.failures", "faults.attempts", "faults.work_gflop"} {
			if hi.Obs(k) < lo.Obs(k) {
				t.Fatalf("faults[%d]: %s dropped from %v to %v when prob rose %v→%v",
					i, k, lo.Obs(k), hi.Obs(k), base.Prob, raised.Prob)
			}
		}
	}
}

// Monotonicity under deadline slack: for the same generated workflow, the
// energy-deadline policy's simulated energy at a looser deadline is never
// worse than at a tighter one (more slack can only widen each step's
// feasible set toward lower-energy nodes). Verified over the fixed
// generated set — the seeds are deterministic, so this is a pinned
// property, not a flaky statistical claim.
func TestSlackMonotonicity(t *testing.T) {
	f := family(t, "placement")
	env := testEnv(0, nil)
	for i := 0; i < f.Size; i += propStride {
		wf := f.Config(env, i).Ops[0]
		energyAt := func(slack float64) float64 {
			ops := []scenarios.Op{
				wf,
				scenarios.Testbed{Preset: "default"},
				scenarios.Place{Policy: "energy-deadline", Slack: slack},
				scenarios.Simulate{},
			}
			st, err := scenarios.RunOps(context.Background(), testEnv(0, nil), ops)
			if err != nil {
				t.Fatal(err)
			}
			return st.Obs("sim.energy_j")
		}
		tight, loose := energyAt(1.0), energyAt(3.0)
		if loose > tight {
			t.Fatalf("placement[%d]: energy rose from %v to %v when slack rose 1.0→3.0", i, tight, loose)
		}
	}
}
