package orchestrator

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/continuum"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/workflow"
)

// The compiled-schedule simulator must be invisible: every makespan, trace
// and accounting float it produces has to match the seed (map-and-closure)
// implementation bit for bit. This golden pins the seed implementation's
// outputs — full hex float64 renderings, no rounding — across a grid of
// workflows × infrastructures × policies plus every sweep driver at worker
// counts 1, 4 and 8. The file was generated against the seed implementation
// (before the index-heap/compiled-schedule rewrite) and must never be
// regenerated to paper over a diff; -update-sim-golden exists for vetted
// model changes only.
var updateSimGolden = flag.Bool("update-sim-golden", false, "rewrite testdata/simulate_golden.txt from the current implementation")

// hexF renders a float64 exactly (hex mantissa/exponent, no rounding).
func hexF(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func goldenWorkflows() map[string]func() *workflow.Workflow {
	return map[string]func() *workflow.Workflow{
		"pipeline": pipelineWF,
		"wide-10":  func() *workflow.Workflow { return wideWF(10) },
		"wide-24":  func() *workflow.Workflow { return wideWF(24) },
		"rand-100": func() *workflow.Workflow { return benchWorkflow(100) },
		"tiered": func() *workflow.Workflow {
			w := workflow.New("tiered")
			w.MustAdd(workflow.Step{ID: "sense", Tier: "edge", WorkGFlop: 5, OutputBytes: 80e6})
			w.MustAdd(workflow.Step{ID: "clean", After: []string{"sense"}, WorkGFlop: 400, Cores: 4, OutputBytes: 40e6})
			w.MustAdd(workflow.Step{ID: "train", After: []string{"clean"}, Tier: "hpc", WorkGFlop: 9000, Cores: 32, OutputBytes: 8e6})
			w.MustAdd(workflow.Step{ID: "serve", After: []string{"train"}, Tier: "cloud", WorkGFlop: 15, OutputBytes: 1e6})
			return w
		},
	}
}

// grantedCores maps each step to the cores the simulator grants it, as
// compile folds them: the request capped at the node's size.
func grantedCores(t *testing.T, wf *workflow.Workflow, inf *continuum.Infrastructure, p Placement) map[string]int {
	t.Helper()
	prog, err := compile(wf, inf, p)
	if err != nil {
		t.Fatal(err)
	}
	cores := make(map[string]int, len(prog.steps))
	for _, st := range prog.steps {
		cores[st.id] = int(st.cores)
	}
	return cores
}

// renderSchedule writes every externally observable field of a Schedule in
// deterministic order with exact floats, plus each step's granted cores.
func renderSchedule(b *strings.Builder, s *Schedule, cores map[string]int) {
	fmt.Fprintf(b, "policy=%s makespan=%s dyn=%s idle=%s cost=%s moved=%s nodes=%d\n",
		s.Policy, hexF(s.Makespan), hexF(s.DynamicEnergyJ), hexF(s.IdleEnergyJ),
		hexF(s.CostEUR), hexF(s.BytesMoved), s.NodesUsed)
	ids := make([]string, 0, len(s.Steps))
	for id := range s.Steps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tr := s.Steps[id]
		fmt.Fprintf(b, "  step=%s node=%s place=%s cores=%d ready=%s start=%s finish=%s xfer=%s wait=%s\n",
			id, tr.NodeID, s.Placement[id], cores[id],
			hexF(tr.Ready), hexF(tr.Start), hexF(tr.Finish), hexF(tr.TransferS), hexF(tr.WaitS))
	}
}

// simulateGolden renders the full behaviour grid.
func simulateGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder

	infs := []struct {
		name string
		mk   func() *continuum.Infrastructure
	}{
		{"testbed", continuum.Testbed},
		{"edgecloud", continuum.EdgeCloudTestbed},
	}
	wfs := goldenWorkflows()
	wfNames := make([]string, 0, len(wfs))
	for n := range wfs {
		wfNames = append(wfNames, n)
	}
	sort.Strings(wfNames)

	for _, inf := range infs {
		for _, wfName := range wfNames {
			mkWf := wfs[wfName]
			for _, pol := range Policies(rng.New(42)) {
				wf := mkWf()
				in := inf.mk()
				p, err := pol.Place(wf, in)
				if err != nil {
					// Some workflows are unplaceable on the edge-cloud testbed
					// (no HPC tier): the error itself is part of the contract.
					fmt.Fprintf(&b, "%s/%s/%s: ERR %v\n", inf.name, wfName, pol.Name(), err)
					continue
				}
				s, err := Simulate(wf, in, p, pol.Name())
				if err != nil {
					fmt.Fprintf(&b, "%s/%s/%s: SIMERR %v\n", inf.name, wfName, pol.Name(), err)
					continue
				}
				fmt.Fprintf(&b, "%s/%s/", inf.name, wfName)
				renderSchedule(&b, s, grantedCores(t, wf, in, p))
			}
		}
	}

	// Fault model single runs across seeds.
	for _, seed := range []int64{1, 7, 99} {
		fm := FaultModel{FailureProb: 0.3, MaxRetries: 50, Rng: rng.New(seed)}
		wf := pipelineWF()
		in := continuum.Testbed()
		p, err := (DataLocal{}).Place(wf, in)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := simulateWithFaults(wf, in, p, "data-local", fm)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "faults/seed-%d: failures=%d ", seed, fs.Failures)
		renderSchedule(&b, fs.Schedule, grantedCores(t, wf, in, p))
	}

	// Resume single runs: high failure probability forces the fatal path.
	for _, seed := range []int64{3, 11} {
		fm := FaultModel{FailureProb: 0.9, MaxRetries: 2, Rng: rng.New(seed)}
		wf := wideWF(12)
		in := continuum.Testbed()
		p, err := (DataLocal{}).Place(wf, in)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := simulateWithResume(wf, in, p, fm)
		if err != nil {
			t.Fatal(err)
		}
		if rs == nil {
			fmt.Fprintf(&b, "resume/seed-%d: no-fatal\n", seed)
			continue
		}
		fmt.Fprintf(&b, "resume/seed-%d: fatal=%s failures=%d done=%d/%d first=%s resume=%s scratch=%s savedG=%s savedS=%s\n",
			seed, rs.FatalStep, rs.Failures, rs.CompletedSteps, rs.TotalSteps,
			hexF(rs.FirstMakespan), hexF(rs.ResumeMakespan), hexF(rs.ScratchMakespan),
			hexF(rs.SavedGFlop), hexF(rs.SavedS))
	}

	// Sweep drivers at worker counts 1, 4, 8: results must not depend on the
	// worker count, and each candidate's floats must match the seed bits.
	probs := []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8}
	slacks := []float64{1, 1.3, 2, 4}
	for _, workers := range []int{1, 4, 8} {
		pts, err := SweepFaults(sweepWF(), continuum.Testbed, DataLocal{}, probs, 60, 42, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			fmt.Fprintf(&b, "sweep-faults/w%d/p=%s: failures=%d makespan=%s energy=%s\n",
				workers, hexF(pt.FailureProb), pt.Stats.Failures,
				hexF(pt.Stats.Schedule.Makespan), hexF(pt.Stats.Schedule.TotalEnergyJ()))
		}
		rpts, err := SweepFaultsResume(sweepWF(), continuum.Testbed, DataLocal{}, probs, 2, 42, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range rpts {
			if pt.Stats == nil {
				fmt.Fprintf(&b, "sweep-resume/w%d/p=%s: nil\n", workers, hexF(pt.FailureProb))
				continue
			}
			fmt.Fprintf(&b, "sweep-resume/w%d/p=%s: fatal=%s first=%s resume=%s scratch=%s\n",
				workers, hexF(pt.FailureProb), pt.Stats.FatalStep,
				hexF(pt.Stats.FirstMakespan), hexF(pt.Stats.ResumeMakespan), hexF(pt.Stats.ScratchMakespan))
		}
		scheds, err := SweepSlack(sweepWF(), continuum.Testbed, slacks, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scheds {
			fmt.Fprintf(&b, "sweep-slack/w%d/s=%s: makespan=%s energy=%s\n",
				workers, hexF(slacks[i]), hexF(s.Makespan), hexF(s.TotalEnergyJ()))
		}
		comp, err := Compare(func() *workflow.Workflow { return wideWF(12) }, continuum.Testbed,
			Policies(rng.New(42)), par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range comp {
			fmt.Fprintf(&b, "compare/w%d/rank-%d: policy=%s makespan=%s\n",
				workers, i, s.Policy, hexF(s.Makespan))
		}
	}
	return b.String()
}

// TestSimulateMatchesSeedGolden asserts the simulator is byte-identical to
// the committed seed-implementation record.
func TestSimulateMatchesSeedGolden(t *testing.T) {
	got := simulateGolden(t)
	path := filepath.Join("testdata", "simulate_golden.txt")
	if *updateSimGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-sim-golden to create): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range wantLines {
			if i >= len(gotLines) {
				t.Fatalf("golden mismatch: output truncated at line %d; first missing line:\n%s", i+1, wantLines[i])
			}
			if gotLines[i] != wantLines[i] {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("golden mismatch: %d extra output lines, first:\n%s", len(gotLines)-len(wantLines), gotLines[len(wantLines)])
	}
}

// simulateWithFaults is one candidate of SweepFaults with its own RNG: it
// draws the attempts from fm.Rng, inflates each step's work by its attempt
// count and simulates the compiled scenario.
func simulateWithFaults(wf *workflow.Workflow, inf *continuum.Infrastructure, p Placement, policyName string, fm FaultModel) (*FaultyStats, error) {
	steps := wf.Steps()
	attempts := make([]int32, len(steps))
	failures, err := drawAttempts(steps, fm, fm.Rng, attempts)
	if err != nil {
		return nil, err
	}
	prog, err := compile(wf, inf, p)
	if err != nil {
		return nil, err
	}
	sc := simPool.Get()
	defer simPool.Put(sc)
	sc.bind(prog)
	copy(sc.attempts, attempts)
	sc.inflatedWork()
	if err := prog.run(sc); err != nil {
		return nil, err
	}
	return &FaultyStats{Schedule: prog.buildSchedule(sc, policyName), Failures: failures}, nil
}

// simulateWithResume is one candidate of SweepFaultsResume with its own
// RNG; it returns nil stats when no step exhausts its retries.
func simulateWithResume(wf *workflow.Workflow, inf *continuum.Infrastructure, p Placement, fm FaultModel) (*ResumeStats, error) {
	attempts := make([]int32, wf.Len())
	fatal := drawAttemptsResume(wf.Len(), fm, fm.Rng, attempts)
	if fatal < 0 {
		return nil, nil
	}
	prog, err := compile(wf, inf, p)
	if err != nil {
		return nil, err
	}
	sc := simPool.Get()
	defer simPool.Put(sc)
	sc.bind(prog)
	copy(sc.attempts, attempts)
	return prog.resumeStats(sc, fatal)
}
