package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/runpack"
	"repro/internal/telemetry"
)

// warmSweeps is how many back-to-back warm sweeps one cli-batch iteration
// times: a single ~1.5 ms sweep is too noisy to compare across runs.
const warmSweeps = 20

// regressWorkers are the worker counts `make regress` re-executes at.
var regressWorkers = []int{1, 4, 8}

// batchPhase is the cli-batch workload: the offline entry points, with no
// HTTP and no daemon. One iteration is `smsreport -run all` (cold),
// `runpack regress -workers 1,4,8 goldens/runpacks`, and warmSweeps runs of
// `smsreport -run all -cache DIR` over a cache primed in set-up.
type batchPhase struct {
	reg     *exp.Registry
	cold    experiments.CLIOptions
	warm    experiments.CLIOptions
	coldSum [32]byte // digest of the cold sweep's JSON results, from set-up
	goldens []string
	dir     string
}

func setupBatch(r *runner) (phase, error) {
	ref, err := experiments.Default()
	if err != nil {
		return nil, err
	}
	reg, err := r.tr.wrapRegistry(ref, false)
	if err != nil {
		return nil, err
	}
	goldens, err := goldenDirs(r.cfg.goldens)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "smsbench-cache-")
	if err != nil {
		return nil, err
	}
	p := &batchPhase{reg: reg, goldens: goldens, dir: dir}
	p.cold = experiments.CLIOptions{Run: "all", JSON: true, Seed: r.cfg.seed, Workers: runtime.GOMAXPROCS(0)}
	p.warm = experiments.CLIOptions{Run: "all", Seed: r.cfg.seed, Workers: runtime.GOMAXPROCS(0), Cache: dir}
	var buf bytes.Buffer
	if err = experiments.RunCLI(reg, p.warm, io.Discard); err == nil {
		err = experiments.RunCLI(reg, p.cold, &buf)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	p.coldSum = sha256.Sum256(buf.Bytes())
	return p, nil
}

// goldenDirs lists the pack directories under root, the way `runpack
// regress` expands its argument.
func goldenDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(root, e.Name(), "manifest.json")); e.IsDir() && err == nil {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no runpack under %s", root)
	}
	return dirs, nil
}

func (p *batchPhase) close() { os.RemoveAll(p.dir) }

func (p *batchPhase) measure(r *runner) {
	var buf bytes.Buffer
	for {
		if _, ok := r.take(); !ok {
			return
		}
		start := now()
		err := p.iteration(r, &buf)
		r.rec.op(err)
		if err == nil {
			r.ops.add(since(start))
		}
	}
}

// iteration runs the three steps once and checks each one's output.
func (p *batchPhase) iteration(r *runner, buf *bytes.Buffer) error {
	start := now()
	buf.Reset()
	if err := experiments.RunCLI(p.reg, p.cold, buf); err != nil {
		return err
	}
	if sha256.Sum256(buf.Bytes()) != p.coldSum {
		return fmt.Errorf("cold sweep: results differ from the set-up sweep")
	}
	r.steps["sweep_cold"] += since(start)

	start = now()
	if err := p.regress(r); err != nil {
		return err
	}
	r.steps["regress"] += since(start)

	for k := 0; k < warmSweeps; k++ {
		start = now()
		hits, misses, err := p.warmSweep(r, buf)
		if err != nil {
			return err
		}
		r.reads.add(since(start))
		if hits != int64(p.reg.Len()) || misses != 0 {
			return fmt.Errorf("warm sweep: hits=%d misses=%d, want hits=%d misses=0", hits, misses, p.reg.Len())
		}
	}
	return nil
}

// regress is cmd/runpack's regress sequence: read and verify each golden
// pack, re-execute its Spec at every worker count, seal, and diff.
func (p *batchPhase) regress(r *runner) error {
	key := runpack.DevKey()
	for _, dir := range p.goldens {
		start := now()
		golden, err := runpack.ReadDir(dir)
		r.tr.time("runpack.readdir", start)
		if err != nil {
			return err
		}
		start = now()
		err = golden.Verify(runpack.VerifyOpts{Key: &key})
		r.tr.time("runpack.verify", start)
		if err != nil {
			return fmt.Errorf("%s: golden does not verify: %w", dir, err)
		}
		for _, w := range regressWorkers {
			wStart := now()
			sim := clock.NewSim(golden.Manifest.RootSeed)
			env := &exp.Env{Seed: golden.Manifest.RootSeed, Clock: sim,
				Metrics: telemetry.NewWithClock(sim), Par: []par.Option{par.Workers(w)}}
			res, err := p.reg.Run(context.Background(), env, golden.Manifest.Experiment)
			if err != nil {
				return err
			}
			start = now()
			cand, err := p.reg.Seal(res, env, key)
			r.tr.time("runpack.seal", start)
			if err != nil {
				return err
			}
			start = now()
			d := runpack.Diff(golden, cand)
			r.tr.time("runpack.diff", start)
			if d.Material {
				return fmt.Errorf("%s at workers=%d: material drift\n%s", dir, w, d.Text())
			}
			r.steps[fmt.Sprintf("regress.w%d", w)] += since(wStart)
		}
	}
	return nil
}

// warmSweep is `smsreport -run all -cache DIR` and returns the memo hits
// and misses it reports. A traced run makes the same calls RunCLI makes —
// CLIOptions.Env, then Registry.RunAll — with the Env's store wrapped by
// the timing cas.Store, and skips only RunCLI's summary printing.
func (p *batchPhase) warmSweep(r *runner, buf *bytes.Buffer) (hits, misses int64, err error) {
	if r.tr == nil {
		buf.Reset()
		if err := experiments.RunCLI(p.reg, p.warm, buf); err != nil {
			return 0, 0, err
		}
		_, err := fmt.Sscanf(lastLine(buf.Bytes()), "%d experiments ok (hits=%d misses=%d)", new(int), &hits, &misses)
		return hits, misses, err
	}
	env, err := p.warm.Env()
	if err != nil {
		return 0, 0, err
	}
	env.Store = r.tr.wrapStore(env.Store)
	if _, err := p.reg.RunAll(context.Background(), env); err != nil {
		return 0, 0, err
	}
	hits, misses = env.Metrics.Counter("exp.hits"), env.Metrics.Counter("exp.misses")
	r.counters["exp.hits"] += hits
	r.counters["exp.misses"] += misses
	r.counters["exp.bytes"] += env.Metrics.Counter("exp.bytes")
	return hits, misses, nil
}

func lastLine(b []byte) string {
	b = bytes.TrimRight(b, "\n")
	return string(b[bytes.LastIndexByte(b, '\n')+1:])
}

// verify has nothing left to do: every iteration checked its own output.
func (p *batchPhase) verify(*runner) {}

// attribute charges the iterations' time to the experiment bodies, the
// cas calls of the warm sweeps and the runpack calls of the regress step.
// What is left is the registry, result encoding and decoding, and output.
func (p *batchPhase) attribute(r *runner) (string, time.Duration, []part) {
	t := r.tr
	var body, store time.Duration
	for _, ns := range bodyNamespaces {
		body += t.get("body." + ns).sum
	}
	for _, op := range casOps {
		store += t.get("cas." + op).sum
	}
	pack := t.get("runpack.readdir").sum + t.get("runpack.verify").sum + t.get("runpack.seal").sum + t.get("runpack.diff").sum
	return "iterations", r.ops.sum, []part{{"body", body}, {"cas", store}, {"runpack", pack}, {"tracer", t.get("tracer").sum}}
}
