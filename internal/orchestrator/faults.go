package orchestrator

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/workflow"
)

// FaultModel injects step failures into the schedule simulation — the
// fault-tolerance dimension the paper's discussion flags as missing from
// the surveyed ecosystem. Each step execution fails independently with
// FailureProb; a failed attempt consumes its full execution time (fail at
// the end, the worst case) and the step re-executes on the same node, up to
// MaxRetries additional attempts.
type FaultModel struct {
	FailureProb float64
	MaxRetries  int
	Rng         *rng.Rand // deterministic injections
}

// Validate checks the model.
func (f *FaultModel) Validate() error {
	if f.FailureProb < 0 || f.FailureProb >= 1 {
		return fmt.Errorf("orchestrator: failure probability %v outside [0,1)", f.FailureProb)
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("orchestrator: negative retries %d", f.MaxRetries)
	}
	return nil
}

// FaultyStats extends a schedule with failure accounting.
type FaultyStats struct {
	Schedule *Schedule
	Failures int // failed attempts that were retried
}

// drawAttempts pre-draws the per-step attempt counts into sc.attempts
// (attempts = 1 + number of leading failures), in workflow insertion order
// — the stream convention every fault sweep depends on. A step whose
// failures exceed MaxRetries is the unrecoverable case and aborts with an
// error. Returns the total failed-attempt count.
func drawAttempts(steps []*workflow.Step, fm FaultModel, r *rng.Rand, attempts []int32) (int, error) {
	failures := 0
	for i, s := range steps {
		a := 1
		for fm.FailureProb > 0 && r.Float64() < fm.FailureProb {
			a++
			if a > fm.MaxRetries+1 {
				return 0, fmt.Errorf("orchestrator: step %q exhausted %d retries", s.ID, fm.MaxRetries)
			}
		}
		attempts[i] = int32(a)
		failures += a - 1
	}
	return failures, nil
}
