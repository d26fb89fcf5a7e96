package orchestrator

// Checkpoint/resume accounting for the schedule simulator: the what-if the
// cas subsystem answers operationally ("after a mid-run fault, how much
// work does content-addressed checkpointing save?"), answered here in
// simulation so fault sweeps can quantify it across failure probabilities.

import (
	"fmt"

	"repro/internal/continuum"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/workflow"
)

// ResumeStats quantifies the work a checkpoint/resume layer saves after an
// unrecoverable mid-run fault (a step exhausting its retries).
type ResumeStats struct {
	// FatalStep exhausted its retry budget and aborted the run.
	FatalStep string
	// Failures counts the failed attempts drawn before the abort.
	Failures int
	// CompletedSteps finished (and were checkpointed) before the abort;
	// TotalSteps is the workflow size.
	CompletedSteps int
	TotalSteps     int
	// FirstMakespan is the simulated time lost to the aborted run.
	FirstMakespan float64
	// ResumeMakespan re-runs only the incomplete steps (checkpointed
	// results are restored with zero recompute; their artifacts still
	// move over the network).
	ResumeMakespan float64
	// ScratchMakespan re-runs every step from scratch — the no-checkpoint
	// baseline for the second run.
	ScratchMakespan float64
	// SavedGFlop is the checkpointed work the resume run skips; SavedS is
	// ScratchMakespan - ResumeMakespan.
	SavedGFlop float64
	SavedS     float64
}

// drawAttemptsResume pre-draws attempt counts like drawAttempts, but
// instead of treating retry exhaustion as an error it clamps the attempt
// count to the budget and remembers the first exhausted step (insertion
// order) as the fatal one; drawing continues for later steps from the same
// stream. Returns the fatal step index, or -1 when the run succeeds.
func drawAttemptsResume(n int, fm FaultModel, r *rng.Rand, attempts []int32) int {
	fatal := -1
	for i := 0; i < n; i++ {
		a := 1
		for fm.FailureProb > 0 && r.Float64() < fm.FailureProb {
			a++
			if a > fm.MaxRetries+1 {
				break
			}
		}
		if a > fm.MaxRetries+1 {
			// Every granted attempt ran and failed; the first such step is
			// the fatal one (insertion order, the SweepFaults convention).
			a = fm.MaxRetries + 1
			if fatal == -1 {
				fatal = i
			}
		}
		attempts[i] = int32(a)
	}
	return fatal
}

// resumeStats simulates the recovery story for a run whose step fatal
// exhausted its retries: the aborted first run (inflated by sc.attempts,
// truncated at the fatal step's finish), a resume run replaying only the
// steps not checkpointed before the abort, and the re-run-everything
// baseline. sc must be bound to p with attempts filled.
func (p *compiledSim) resumeStats(sc *simScratch, fatal int) (*ResumeStats, error) {
	// First (aborted) run: inflate work by attempt counts and read the
	// timeline. The fatal step's finish time is the abort instant.
	sc.inflatedWork()
	if err := p.run(sc); err != nil {
		return nil, fmt.Errorf("orchestrator: aborted-run simulation: %w", err)
	}
	abortAt := sc.finish[fatal]
	stats := &ResumeStats{
		FatalStep:     p.steps[fatal].id,
		TotalSteps:    len(p.steps),
		FirstMakespan: abortAt,
	}
	for i := range p.steps {
		sc.completed[i] = false
		if i == fatal {
			continue
		}
		if sc.finish[i] <= abortAt {
			sc.completed[i] = true
			stats.CompletedSteps++
			stats.SavedGFlop += p.steps[i].work
		}
	}
	// Failed attempts drawn for steps that never started do not count:
	// only steps that began before the abort paid for their retries.
	for i := range p.steps {
		if sc.start[i] < abortAt {
			stats.Failures += int(sc.attempts[i]) - 1
		}
	}

	// Resume run: checkpointed steps restore with zero recompute (their
	// output artifacts still feed dependents); incomplete steps — the
	// fault fixed — run once.
	for i := range p.steps {
		if sc.completed[i] {
			sc.effWork[i] = 0
		} else {
			sc.effWork[i] = p.steps[i].work
		}
	}
	if err := p.run(sc); err != nil {
		return nil, fmt.Errorf("orchestrator: resume simulation: %w", err)
	}
	stats.ResumeMakespan = sc.makespan()

	// Scratch baseline: everything re-executes once.
	sc.baseWork()
	if err := p.run(sc); err != nil {
		return nil, fmt.Errorf("orchestrator: scratch simulation: %w", err)
	}
	stats.ScratchMakespan = sc.makespan()
	stats.SavedS = stats.ScratchMakespan - stats.ResumeMakespan
	return stats, nil
}

// ResumePoint is one candidate of a resume sweep. Stats is nil when the
// run at that failure probability completed without exhausting retries.
type ResumePoint struct {
	FailureProb float64
	Stats       *ResumeStats
}

// SweepFaultsResume runs the resume recovery story across failure
// probabilities on the par worker pool — candidate i draws from
// par.SplitSeed(seed, i), so the sweep is reproducible for any worker
// count, mirroring SweepFaults. Like SweepFaults, the scenario is placed
// and compiled once and candidates share pooled scratch, so pol must be
// deterministic.
func SweepFaultsResume(mkWf func() *workflow.Workflow, mkInf func() *continuum.Infrastructure,
	pol Policy, probs []float64, maxRetries int, seed int64, opts ...par.Option) ([]ResumePoint, error) {

	wf := mkWf()
	inf := mkInf()
	placement, err := pol.Place(wf, inf)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: policy %s: %w", pol.Name(), err)
	}
	prog, err := compile(wf, inf, placement)
	if err != nil {
		return nil, err
	}
	return par.MapReduceScratch(len(probs), simPool, func(_, lo, hi int, sc *simScratch) ([]ResumePoint, error) {
		pts := make([]ResumePoint, 0, hi-lo)
		for i := lo; i < hi; i++ {
			fm := FaultModel{
				FailureProb: probs[i],
				MaxRetries:  maxRetries,
				Rng:         rng.New(par.SplitSeed(seed, i)),
			}
			if err := fm.Validate(); err != nil {
				return nil, err
			}
			sc.bind(prog)
			fatal := drawAttemptsResume(len(prog.steps), fm, fm.Rng, sc.attempts)
			if fatal < 0 {
				pts = append(pts, ResumePoint{FailureProb: probs[i]})
				continue
			}
			rs, err := prog.resumeStats(sc, fatal)
			if err != nil {
				return nil, err
			}
			pts = append(pts, ResumePoint{FailureProb: probs[i], Stats: rs})
		}
		return pts, nil
	}, func(a, b []ResumePoint) []ResumePoint { return append(a, b...) }, sweepOpts(opts)...)
}
