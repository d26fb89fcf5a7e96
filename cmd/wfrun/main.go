// Command wfrun compiles a TOSCA-style blueprint (JSON) into a workflow,
// places it on a simulated Computing Continuum with a chosen orchestration
// policy, and reports the schedule: per-step placement and timing, makespan,
// energy, cost, and data movement.
//
// With -store it instead *executes* the workflow through the
// content-addressed artifact store (internal/cas): step results are
// memoized on (workflow, step, body fingerprint, dep hashes), a checkpoint
// journal records completed steps, and -resume replays only the steps that
// had not completed after a fault.
//
// Usage:
//
//	wfrun -blueprint app.json                 # policy from the blueprint
//	wfrun -blueprint app.json -policy heft    # override policy
//	wfrun -blueprint app.json -compare        # run every built-in policy
//	wfrun -demo                               # built-in demo blueprint
//	wfrun -demo -store .wfcache               # memoized execution (cold)
//	wfrun -demo -store .wfcache -cache-stats  # …again: every step hits
//	wfrun -demo -store .wfcache -fail-step train   # inject a fault mid-run
//	wfrun -demo -store .wfcache -resume       # replay only incomplete steps
//	wfrun -list                               # list registered experiments
//	wfrun -run sweep/faults                   # run one experiment
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"repro/internal/rng"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/continuum"
	"repro/internal/experiments"
	"repro/internal/orchestrator"
	"repro/internal/workflow"
)

const demoBlueprint = `{
  "name": "hybrid-analytics",
  "version": "1.0",
  "components": [
    {"name": "ingest", "type": "function", "gflop": 20, "output_mb": 400, "tier": "edge"},
    {"name": "clean", "type": "job", "gflop": 300, "cores": 4, "output_mb": 200, "depends_on": ["ingest"]},
    {"name": "train", "type": "job", "gflop": 8000, "cores": 32, "tier": "hpc", "output_mb": 50, "depends_on": ["clean"]},
    {"name": "validate", "type": "job", "gflop": 500, "cores": 8, "output_mb": 10, "depends_on": ["train"]},
    {"name": "serve", "type": "container", "gflop": 10, "tier": "cloud", "output_mb": 1, "depends_on": ["validate"]}
  ],
  "policies": {"placement": "heft"}
}`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wfrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wfrun", flag.ContinueOnError)
	var (
		bpPath     = fs.String("blueprint", "", "path to a blueprint JSON file")
		policy     = fs.String("policy", "", "override placement policy (random, round-robin, data-local, cost-aware, energy-aware, heft)")
		compare    = fs.Bool("compare", false, "simulate every built-in policy and rank by makespan")
		demo       = fs.Bool("demo", false, "use the built-in demo blueprint")
		seed       = fs.Int64("seed", 1, "seed for the random policy and the simulated clock")
		storeDir   = fs.String("store", "", "content-addressed artifact store directory: execute the workflow with step memoization and checkpointing (internal/cas)")
		resume     = fs.Bool("resume", false, "resume from the store's checkpoint journal, replaying only steps that had not completed (requires -store)")
		cacheStats = fs.Bool("cache-stats", false, "print cache hit/miss and store statistics after a -store execution")
		failStep   = fs.String("fail-step", "", "inject a failure into this step during a -store execution (checkpoint/resume demo)")
		listExp    = fs.Bool("list", false, "list every registered experiment and exit")
		runExp     = fs.String("run", "", "run one registered experiment by name (\"all\" = whole registry)")
		jsonOut    = fs.Bool("json", false, "with -run: emit the experiment Result as JSON")
		workers    = fs.Int("workers", 0, "with -run: bound the experiment worker pool (0 = default; results identical for any value)")
		runpackDir = fs.String("runpack", "", "with -run: seal each executed experiment into a signed runpack under this directory (cmd/runpack verifies)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof allocation profile after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wfrun: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained allocations
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "wfrun: memprofile:", err)
			}
		}()
	}
	cliOpts := experiments.CLIOptions{
		List: *listExp, Run: *runExp, JSON: *jsonOut,
		Seed: *seed, Workers: *workers, Cache: *storeDir, Runpack: *runpackDir,
	}
	if cliOpts.Active() {
		reg, err := experiments.Default()
		if err != nil {
			return err
		}
		return experiments.RunCLI(reg, cliOpts, out)
	}
	if (*resume || *cacheStats || *failStep != "") && *storeDir == "" {
		return fmt.Errorf("-resume, -cache-stats and -fail-step require -store DIR")
	}
	if *storeDir != "" && *compare {
		return fmt.Errorf("-store (execution) and -compare (simulation) are mutually exclusive")
	}

	var src io.Reader
	switch {
	case *demo:
		src = strings.NewReader(demoBlueprint)
	case *bpPath != "":
		f, err := os.Open(*bpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	default:
		return fmt.Errorf("need -blueprint FILE or -demo")
	}

	bp, err := orchestrator.ParseBlueprint(src)
	if err != nil {
		return err
	}
	if *policy != "" {
		bp.Policies.Placement = *policy
	}

	if *compare {
		schedules, err := orchestrator.Compare(
			func() *workflow.Workflow {
				wf, cerr := bp.Compile()
				if cerr != nil {
					panic(cerr) // validated above
				}
				return wf
			},
			continuum.Testbed,
			orchestrator.Policies(rng.New(*seed)),
		)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Blueprint %s: policy comparison (best makespan first)\n", bp.Name)
		fmt.Fprintf(out, "%-14s %10s %12s %10s %12s %6s\n", "policy", "makespan", "energy", "cost", "moved", "nodes")
		for _, s := range schedules {
			fmt.Fprintf(out, "%-14s %9.2fs %11.0fJ %9.4f€ %11.0fB %6d\n",
				s.Policy, s.Makespan, s.TotalEnergyJ(), s.CostEUR, s.BytesMoved, s.NodesUsed)
		}
		return nil
	}

	wf, err := bp.Compile()
	if err != nil {
		return err
	}
	if *storeDir != "" {
		return execute(out, wf, *storeDir, *resume, *cacheStats, *failStep, *seed)
	}
	pol, err := bp.Policy()
	if err != nil {
		return err
	}
	inf := continuum.Testbed()
	placement, err := pol.Place(wf, inf)
	if err != nil {
		return err
	}
	sched, err := orchestrator.Simulate(wf, inf, placement, pol.Name())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Blueprint %s on policy %s\n\n", bp.Name, pol.Name())
	fmt.Fprintf(out, "%-12s %-10s %10s %10s %10s %10s\n", "step", "node", "ready", "start", "finish", "wait")
	ids := make([]string, 0, len(sched.Steps))
	for id := range sched.Steps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return sched.Steps[ids[i]].Start < sched.Steps[ids[j]].Start })
	for _, id := range ids {
		tr := sched.Steps[id]
		fmt.Fprintf(out, "%-12s %-10s %9.2fs %9.2fs %9.2fs %9.2fs\n",
			id, tr.NodeID, tr.Ready, tr.Start, tr.Finish, tr.WaitS)
	}
	fmt.Fprintf(out, "\nmakespan %.2fs | energy %.0fJ (dynamic %.0f + idle %.0f) | cost %.4f€ | moved %.0fB | nodes %d\n",
		sched.Makespan, sched.TotalEnergyJ(), sched.DynamicEnergyJ, sched.IdleEnergyJ,
		sched.CostEUR, sched.BytesMoved, sched.NodesUsed)
	return nil
}

// bodyFingerprint pins a step's synthetic body identity: any change to the
// step's blueprint-derived parameters invalidates its cache entries.
func bodyFingerprint(s *workflow.Step) string {
	return fmt.Sprintf("wfrun/v1:%s:%g:%d:%g:%s", s.ID, s.WorkGFlop, s.Cores, s.OutputBytes, s.Tier)
}

// execute runs the compiled workflow through the content-addressed store:
// synthetic deterministic step bodies (each step's artifact derives from
// its parameters and its dependencies' artifacts), memoized on internal/cas
// with a checkpoint journal in the store directory. Everything runs on a
// clock.Sim seeded with seed — each executed step advances simulated time
// by 1 ms per GFlop — so the output, the journal, and the store contents
// are byte-identical across machines and runs.
func execute(out io.Writer, wf *workflow.Workflow, storeDir string, resume, cacheStats bool, failStep string, seed int64) error {
	store, err := cas.NewDiskStore(storeDir)
	if err != nil {
		return err
	}
	sim := clock.NewSim(seed)

	// -resume takes its set from the runs already in the journal.
	journalPath := filepath.Join(storeDir, "journal.jsonl")
	if resume {
		if _, err := os.Stat(journalPath); err != nil {
			return fmt.Errorf("no checkpoint journal to resume from: %w", err)
		}
	}
	journal, jf, prior, err := cas.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	defer jf.Close()
	var completed map[string]cas.Key
	if resume {
		completed = cas.Completed(prior, wf.Name)
	}

	bodies := map[string]workflow.StepFunc{}
	fingerprints := map[string]string{}
	for _, s := range wf.Steps() {
		s := s
		fingerprints[s.ID] = bodyFingerprint(s)
		bodies[s.ID] = func(_ context.Context, deps map[string]any) (any, error) {
			if s.ID == failStep {
				return nil, fmt.Errorf("injected failure at step %q", s.ID)
			}
			// Pay the modeled cost in simulated time: 1 ms per GFlop.
			sim.Sleep(time.Duration(s.WorkGFlop * float64(time.Millisecond)))
			enc, err := json.Marshal(deps)
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("artifact(%s gflop=%g out=%gB) inputs=%s",
				s.ID, s.WorkGFlop, s.OutputBytes, cas.KeyOf(enc).Short()), nil
		}
	}

	memo := &cas.Memo{
		Store:   store,
		Clock:   sim,
		Journal: journal,
		Resume:  completed,
	}
	res, runErr := memo.Run(context.Background(), wf, bodies, fingerprints)
	if jerr := journal.Err(); jerr != nil {
		return jerr
	}

	mode := "memoized execution"
	if resume {
		mode = "resumed execution"
	}
	fmt.Fprintf(out, "Blueprint %s: %s (%d steps)\n\n", wf.Name, mode, wf.Len())
	fmt.Fprintf(out, "%-12s %-8s %s\n", "step", "status", "artifact")
	topo, err := wf.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range topo {
		key := "-"
		if k, ok := res.Keys[id]; ok {
			key = k.Short()
		}
		fmt.Fprintf(out, "%-12s %-8s %s\n", id, res.Status[id], key)
	}
	fmt.Fprintf(out, "\nsimulated time %.3fs | executed %d | cached %d | restored %d | skipped %d\n",
		clock.Seconds(sim.Now()), res.Stats.Executed, res.Stats.Hits, res.Stats.Restored,
		res.Stats.Skipped+res.Stats.Failed)

	if cacheStats {
		objects, err := store.Keys()
		if err != nil {
			return err
		}
		links, err := store.Links()
		if err != nil {
			return err
		}
		bytes, err := store.Bytes()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cache: hits=%d misses=%d bytes-written=%d bytes-reused=%d\n",
			res.Stats.Hits+res.Stats.Restored, res.Stats.Misses, res.Stats.BytesWritten, res.Stats.BytesReused)
		fmt.Fprintf(out, "store: %d objects (%d B), %d memo links\n", len(objects), bytes, len(links))
	}
	if runErr != nil {
		return fmt.Errorf("execution failed (completed steps are checkpointed; re-run with -resume): %w", runErr)
	}
	return nil
}
