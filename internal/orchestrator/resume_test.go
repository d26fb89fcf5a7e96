package orchestrator

import (
	"testing"

	"repro/internal/continuum"
	"repro/internal/par"
)

// High failure probability with a single retry: some step exhausts its
// budget with near certainty, so the sweep has resumes to account for.
func resumeProbs() []float64 { return []float64{0, 0.1, 0.3, 0.5, 0.6, 0.7} }

// TestSimulateWithResumeSavesWork: after a fatal fault, replaying only the
// incomplete steps must be no slower than re-running from scratch, and the
// checkpointed work is strictly positive when steps completed first.
func TestSimulateWithResumeSavesWork(t *testing.T) {
	var rs *ResumeStats
	// Scan seeds until the fault lands past the first step, so the aborted
	// run has checkpointed work to save.
	for seed := int64(1); seed < 200 && (rs == nil || rs.CompletedSteps == 0); seed++ {
		pts, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, []float64{0.6}, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		rs = pts[0].Stats
	}
	if rs == nil || rs.CompletedSteps == 0 {
		t.Fatal("no seed produced a mid-run fatal fault with completed steps")
	}
	if rs.FatalStep == "" || rs.TotalSteps != pipelineWF().Len() {
		t.Fatalf("stats: %+v", rs)
	}
	if rs.SavedGFlop <= 0 {
		t.Errorf("completed steps saved %.1f GFlop; want > 0", rs.SavedGFlop)
	}
	if rs.ResumeMakespan > rs.ScratchMakespan {
		t.Errorf("resume run (%.3fs) slower than scratch re-run (%.3fs)", rs.ResumeMakespan, rs.ScratchMakespan)
	}
	if rs.SavedS != rs.ScratchMakespan-rs.ResumeMakespan {
		t.Errorf("SavedS %.6f != scratch-resume %.6f", rs.SavedS, rs.ScratchMakespan-rs.ResumeMakespan)
	}
	if rs.FirstMakespan <= 0 {
		t.Errorf("aborted run lost %.3fs; want > 0", rs.FirstMakespan)
	}
}

// TestSimulateWithResumeNilOnSuccess: when no step exhausts its retries the
// run completes and there is nothing to resume.
func TestSimulateWithResumeNilOnSuccess(t *testing.T) {
	pts, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, []float64{0}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Stats != nil {
		t.Fatalf("fault-free run produced resume stats: %+v", pts[0].Stats)
	}
}

// Property: the resume sweep is bit-identical for any worker count under
// the same root seed, mirroring TestSweepFaultsParallelMatchesSequential.
func TestSweepFaultsResumeParallelMatchesSequential(t *testing.T) {
	probs := resumeProbs()
	want, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, probs, 1, 42, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(probs) {
		t.Fatalf("got %d points for %d probs", len(want), len(probs))
	}
	if want[0].Stats != nil {
		t.Errorf("p=0 cannot exhaust retries, got %+v", want[0].Stats)
	}
	for _, workers := range []int{2, 8} {
		got, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, probs, 1, 42, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].FailureProb != want[i].FailureProb {
				t.Fatalf("Workers(%d): candidate %d prob %v, want %v", workers, i, got[i].FailureProb, want[i].FailureProb)
			}
			w, g := want[i].Stats, got[i].Stats
			if (w == nil) != (g == nil) {
				t.Fatalf("Workers(%d): candidate %d nil mismatch", workers, i)
			}
			if w == nil {
				continue
			}
			if *g != *w {
				t.Errorf("Workers(%d): candidate %d = %+v, sequential %+v", workers, i, *g, *w)
			}
		}
	}
}

// The sweep quantifies saved work: at high failure probability at least one
// candidate aborts mid-run and its resume beats the scratch baseline.
func TestSweepFaultsResumeQuantifiesSavedWork(t *testing.T) {
	pts, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, resumeProbs(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	resumes := 0
	for _, pt := range pts {
		if pt.Stats == nil {
			continue
		}
		resumes++
		if pt.Stats.ResumeMakespan > pt.Stats.ScratchMakespan {
			t.Errorf("p=%.2f: resume %.3fs slower than scratch %.3fs",
				pt.FailureProb, pt.Stats.ResumeMakespan, pt.Stats.ScratchMakespan)
		}
	}
	if resumes == 0 {
		t.Fatal("no candidate exhausted retries; sweep quantified nothing")
	}
}
