// Command bench is the repository's end-to-end benchmark. It times what a
// user of smsd, `smsreport -run all` and `runpack regress` waits for:
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seconds 5              # every workload
//	bash bench/run.sh --workload serve-cold --trace 1         # per-layer run
//
// The serve workloads assemble the daemon exactly as cmd/smsd does
// (experiments.Default, serve.NewServer with 4 workers and a 64-deep
// queue), serve it on a real loopback listener and drive it with closed
// loops of stdlib net/http callers on at most two connections. The batch
// workload calls the functions cmd/smsreport and cmd/runpack call. Every
// timing reads the wall clock through clock.System, and every answer is
// checked for correctness.
//
// An untraced run prints the end-to-end metrics named in BENCHMARK.json; a
// traced run (-trace 1) spends half its time untraced and half with timing
// wrappers around the cas store, the experiment bodies and the HTTP
// handler, and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// bench/README.md explains the workloads, the metrics and how to compare
// two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// phase is one workload set up and ready to time.
type phase interface {
	// measure runs the timed phase, recording into r.
	measure(r *runner)
	// verify runs the checks that happen outside the timed window.
	verify(r *runner)
	// attribute splits an end-to-end time of the timed phase, named by
	// what, over the layers a traced run timed; the rest is reported as
	// unattributed.
	attribute(r *runner) (what string, total time.Duration, parts []part)
	close()
}

// part is one layer's share of a workload's end-to-end time.
type part struct {
	layer string
	d     time.Duration
}

type workload struct {
	name  string
	setup func(r *runner) (phase, error)
}

var workloads = []workload{
	{"serve-read", setupRead},
	{"serve-cold", setupCold},
	{"serve-durable", setupDurable},
	{"cli-batch", setupBatch},
}

// setupRuns is how many times an untraced run sets its workload up; it
// reports the median as setup_s and times the last set-up's workload.
const setupRuns = 7

// goldensDir holds the golden runpacks the cli-batch regress step replays,
// relative to the repository root, where bench/run.sh runs the benchmark.
const goldensDir = "goldens/runpacks"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. A primary operation is a request on serve-read, a batch of
// jobs (submit, await, fetch) on serve-cold and serve-durable, and an
// iteration on cli-batch. A read fetches an already-computed result: an
// artifact or runpack GET on serve-read, a caller's artifact fetch on
// serve-cold, the reader's GET on serve-durable, a warm cached sweep on
// cli-batch. Reads are reported at p85, not p90: serve-cold's fetches wait
// for a scheduler turn behind the bodies about 7 to 10% of the time, so
// their p90 sat on that knee. Times and the rate are scaled to a reference
// host speed (speed.go); heap_setup_mb is the live heap once the workload
// is set up.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_setup_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p85_ms", "ms"},
}

var (
	handlerEndpoints = []string{"status", "artifact", "runpack", "submit", "list", "bad"}
	bodyNamespaces   = []string{"scengen", "corpus", "scenario", "report", "sweep", "continuum"}
	casOps           = []string{"put", "get", "link", "resolve"}
)

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, ep := range handlerEndpoints {
		out = append(out, metricDef{"serve." + ep + "_us", "us"})
	}
	out = append(out,
		metricDef{"serve.queue_wait_p50_ms", "ms"}, metricDef{"serve.queue_wait_p90_ms", "ms"},
		metricDef{"serve.job_ms", "ms"}, metricDef{"serve.rejected", "count"},
		metricDef{"http.rtt_us", "us"}, metricDef{"http.transport_us", "us"},
		metricDef{"client.polls_per_job", "count"}, metricDef{"client.poll_lag_ms", "ms"},
		metricDef{"telemetry.prom_ms", "ms"}, metricDef{"telemetry.prom_bytes", "bytes"},
		metricDef{"exp.hits", "count"}, metricDef{"exp.misses", "count"},
		metricDef{"exp.hit_ratio", "ratio"}, metricDef{"exp.result_bytes", "bytes"},
	)
	for _, ns := range bodyNamespaces {
		out = append(out, metricDef{"body." + ns + "_ms", "ms"}, metricDef{"body." + ns + "_n", "count"})
	}
	out = append(out, metricDef{"body.share", "ratio"})
	for _, op := range casOps {
		out = append(out, metricDef{"cas." + op + "_us", "us"}, metricDef{"cas." + op + "_p99_us", "us"},
			metricDef{"cas." + op + "_n", "count"})
	}
	out = append(out,
		metricDef{"cas.put_bytes", "bytes"}, metricDef{"cas.get_bytes", "bytes"}, metricDef{"cas.puts_per_job", "count"},
		metricDef{"runpack.seal_ms", "ms"}, metricDef{"runpack.verify_ms", "ms"},
		metricDef{"runpack.diff_us", "us"}, metricDef{"runpack.readdir_ms", "ms"},
	)
	for _, w := range regressWorkers {
		out = append(out, metricDef{fmt.Sprintf("regress.w%d_ms", w), "ms"})
	}
	out = append(out,
		metricDef{"step.sweep_cold_ms", "ms"}, metricDef{"step.regress_ms", "ms"},
		metricDef{"go.allocs_per_op", "count"}, metricDef{"go.alloc_bytes_per_op", "bytes"},
		metricDef{"go.gc_cycles", "count"}, metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.heap_peak_mb", "MB"}, metricDef{"proc.cpu_us_per_op", "us"},
		metricDef{"host.ref_kernel_us", "us"},
		metricDef{"trace.overhead", "ratio"}, metricDef{"trace.unattributed_share", "ratio"},
	)
	return out
}()

// value is one metric reading; ok is false for a percentile with too few
// samples beyond it, which is printed as unresolved, never as a number.
type value struct {
	v  float64
	ok bool
}

func num(v float64) value { return value{v, true} }

// pct is a percentile metric. An end-to-end percentile is unresolved when
// too few samples lie beyond it; a per-layer percentile of a layer the
// workload never called (idle) reads 0.
func pct(xs []float64, p float64, idleZero bool) value {
	if len(xs) == 0 && idleZero {
		return num(0)
	}
	v, ok := percentile(xs, p)
	return value{v, ok}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: serve-read, serve-cold, serve-durable, cli-batch or all")
	seed := fs.Int64("seed", 1, "workload seed: job seeds and request mixes derive from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceN := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q or stray arguments %q\n", *name, fs.Args())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, goldens: goldensDir, setups: setupRuns}
	code := 0
	for _, w := range todo {
		if !execute(w, cfg, *traceN == 1, stdout) {
			code = 1
		}
	}
	return code
}

// timedRun sets w up (setups times, keeping the last), times its phase,
// and runs its checks.
func timedRun(w workload, cfg config, rec *recorder, tr *tracer, setups int) (*runner, error) {
	r := newRunner(cfg, rec, tr)
	speed := startSpeedProbe()
	var ph phase
	for k := 0; k < setups; k++ {
		if ph != nil {
			ph.close()
			ph = nil
		}
		start := now()
		p, err := w.setup(r)
		if err != nil {
			speed.finish()
			return r, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.setupS = append(r.setupS, since(start).Seconds())
		// The collection also starts the timed phase from a collected
		// heap, so the set-ups' garbage does not pace its first cycles.
		r.setupHeapMB = append(r.setupHeapMB, liveHeapMB())
		ph = p
	}
	defer ph.close()
	heap := startHeapSampler()
	before := readProc()
	r.begin()
	ph.measure(r)
	r.end()
	r.proc = readProc().minus(before)
	r.peakHeapMB = heap.peakMB()
	r.refUS = speed.finish()
	if tr != nil {
		r.what, r.total, r.parts = ph.attribute(r)
	}
	ph.verify(r)
	return r, nil
}

// execute runs one workload, prints its report and JSON record, and
// reports whether every operation and check passed.
func execute(w workload, cfg config, traced bool, stdout io.Writer) bool {
	rec := &recorder{}
	var (
		m       map[string]value
		defs    = endToEnd
		primary int
		refUS   float64
		notes   []string
	)
	if !traced {
		r, err := timedRun(w, cfg, rec, nil, cfg.setups)
		if err != nil {
			rec.op(err)
		} else {
			m, primary, refUS = endToEndMetrics(r), r.ops.n, r.refUS
			raw := rawEndToEnd(r)
			notes = append(notes,
				fmt.Sprintf("%d primary ops, %d reads in %.2fs; setup_s is the median of %d set-ups",
					r.ops.n, r.reads.n, r.wall.Seconds(), len(r.setupS)),
				fmt.Sprintf("times above are scaled by %.4f = (%dµs / reference kernel)^%g; as measured: ops_per_s=%.5g op_p50_ms=%.5g setup_s=%.5g",
					speedScale(r), refKernelUS, refExponent, raw["ops_per_s"].v, raw["op_p50_ms"].v, raw["setup_s"].v))
		}
	} else {
		defs = perLayer
		half := cfg
		half.seconds /= 2
		r0, err := timedRun(w, half, rec, nil, 1)
		var r1 *runner
		if err == nil {
			r1, err = timedRun(w, half, rec, newTracer(), 1)
		}
		if err != nil {
			rec.op(err)
		} else {
			m, primary, refUS = layerMetrics(r0, r1), r0.ops.n+r1.ops.n, r0.refUS
			notes = append(notes, attributionTable(r1)...)
		}
	}
	stamp := stampMachine(w.name, cfg, traced, rec.attempted.Load(), primary, refUS)
	correct := rec.failed.Load() == 0 && m != nil
	report(stdout, w.name, stamp, defs, m, notes, rec)
	stampJSON, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "machine %s\n%s\n", stampJSON, resultLine(correct, rec, defs, m))
	return correct
}

// resultLine renders the run's JSON record. An unresolved percentile is
// null, never a number.
func resultLine(correct bool, rec *recorder, defs []metricDef, m map[string]value) []byte {
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, rec.attempted.Load(), rec.failed.Load(), map[string]map[string]any{}}
	for _, d := range defs {
		var x any
		if v := m[d.name]; v.ok {
			x = v.v
		}
		out.Metrics[d.name] = map[string]any{"value": x, "unit": d.unit}
	}
	line, _ := json.Marshal(out)
	return line
}

func report(out io.Writer, name string, stamp machine, defs []metricDef, m map[string]value, notes []string, rec *recorder) {
	mode := "untraced"
	if stamp.Trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s seed=%d %s (%s)\n", name, stamp.Seed, mode, stamp)
	for _, d := range defs {
		v, ok := m[d.name]
		s := "unresolved (fewer than 10 samples beyond it)"
		if ok && v.ok {
			s = strconv.FormatFloat(v.v, 'g', 6, 64) + " " + d.unit
		}
		fmt.Fprintf(out, "  %-26s %s\n", d.name, s)
	}
	for _, n := range notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintf(out, "  ops attempted=%d failed=%d\n", rec.attempted.Load(), rec.failed.Load())
	rec.mu.Lock()
	for _, e := range rec.errs {
		fmt.Fprintf(out, "  FAIL %s\n", e)
	}
	rec.mu.Unlock()
}

func median(xs []float64) float64 {
	v, _ := stats.Percentile(xs, 50)
	return v
}

// rawEndToEnd is the end-to-end metrics as measured, before scaling.
func rawEndToEnd(r *runner) map[string]value {
	return map[string]value{
		"setup_s":       num(median(r.setupS)),
		"heap_setup_mb": num(median(r.setupHeapMB)),
		"ops_per_s":     num(float64(r.ops.n) / r.wall.Seconds()),
		"op_p50_ms":     pct(r.ops.ms, 50, false),
		"op_p90_ms":     pct(r.ops.ms, 90, false),
		"read_p50_ms":   pct(r.reads.ms, 50, false),
		"read_p85_ms":   pct(r.reads.ms, 85, false),
	}
}

// speedScale is the factor that takes a time measured in r to the host
// speed at which the reference kernel takes refKernelUS (speed.go).
func speedScale(r *runner) float64 { return math.Pow(refKernelUS/r.refUS, refExponent) }

// endToEndMetrics is what an untraced run reports: every time scaled by
// speedScale, a rate by its inverse, and the heap as measured.
func endToEndMetrics(r *runner) map[string]value {
	m, scale := rawEndToEnd(r), speedScale(r)
	for k, v := range m {
		switch k {
		case "heap_setup_mb":
		case "ops_per_s":
			m[k] = value{v.v / scale, v.ok}
		default:
			m[k] = value{v.v * scale, v.ok}
		}
	}
	return m
}

func mean(s series, unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(unit) / float64(s.n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of a traced run: r1 is the
// traced half, r0 the untraced half the runtime counters and the tracing
// overhead come from. Per-layer times are as measured, not scaled;
// host.ref_kernel_us gives the host speed they were measured at.
func layerMetrics(r0, r1 *runner) map[string]value {
	t := r1.tr
	m := map[string]value{}
	for _, ep := range handlerEndpoints {
		m["serve."+ep+"_us"] = num(mean(t.get("serve."+ep), time.Microsecond))
	}

	jobs := r1.sortedJobs()
	var waits []float64
	var jobMS, lagMS, polls float64
	for _, j := range jobs {
		if js, ok := t.job(j.id); ok {
			waits = append(waits, ms(js.bodyStart.Sub(clock.FromSeconds(j.submittedS))))
		}
		jobMS += (j.doneS - j.submittedS) * 1e3
		lagMS += (clock.Seconds(j.seen) - j.doneS) * 1e3
		polls += float64(j.polls)
	}
	nJobs := float64(len(jobs))
	m["serve.queue_wait_p50_ms"] = pct(waits, 50, true)
	m["serve.queue_wait_p90_ms"] = pct(waits, 90, true)
	m["serve.job_ms"] = num(ratio(jobMS, nJobs))
	m["serve.rejected"] = num(float64(r1.counters["serve.rejected"]))

	rtt := t.get("http.rtt")
	m["http.rtt_us"] = num(mean(rtt, time.Microsecond))
	m["http.transport_us"] = num(ratio(us(rtt.sum-t.get("handler").sum), float64(rtt.n)))
	m["client.polls_per_job"] = num(ratio(polls, nJobs))
	m["client.poll_lag_ms"] = num(ratio(lagMS, nJobs))
	prom := t.get("telemetry.prom")
	m["telemetry.prom_ms"] = num(mean(prom, time.Millisecond))
	m["telemetry.prom_bytes"] = num(ratio(float64(t.byteCount("telemetry.prom")), float64(prom.n)))

	hits, misses := float64(r1.counters["exp.hits"]), float64(r1.counters["exp.misses"])
	m["exp.hits"], m["exp.misses"] = num(hits), num(misses)
	m["exp.hit_ratio"] = num(ratio(hits, hits+misses))
	m["exp.result_bytes"] = num(float64(r1.counters["exp.bytes"]))

	var bodySum time.Duration
	for _, ns := range bodyNamespaces {
		s := t.get("body." + ns)
		bodySum += s.sum
		m["body."+ns+"_ms"] = num(mean(s, time.Millisecond))
		m["body."+ns+"_n"] = num(float64(s.n))
	}
	m["body.share"] = num(ratio(bodySum.Seconds(), r1.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))

	for _, op := range casOps {
		s := t.get("cas." + op)
		m["cas."+op+"_us"] = num(mean(s, time.Microsecond))
		m["cas."+op+"_p99_us"] = pct(s.us, 99, true)
		m["cas."+op+"_n"] = num(float64(s.n))
	}
	m["cas.put_bytes"] = num(float64(t.byteCount("cas.put")))
	m["cas.get_bytes"] = num(float64(t.byteCount("cas.get")))
	m["cas.puts_per_job"] = num(ratio(float64(t.get("cas.put").n), nJobs))

	m["runpack.seal_ms"] = num(mean(t.get("runpack.seal"), time.Millisecond))
	m["runpack.verify_ms"] = num(mean(t.get("runpack.verify"), time.Millisecond))
	m["runpack.diff_us"] = num(mean(t.get("runpack.diff"), time.Microsecond))
	m["runpack.readdir_ms"] = num(mean(t.get("runpack.readdir"), time.Millisecond))

	stepMS := func(k string) value { return num(ratio(ms(r1.steps[k]), float64(r1.ops.n))) }
	for _, w := range regressWorkers {
		m[fmt.Sprintf("regress.w%d_ms", w)] = stepMS(fmt.Sprintf("regress.w%d", w))
	}
	m["step.sweep_cold_ms"], m["step.regress_ms"] = stepMS("sweep_cold"), stepMS("regress")

	ops, p := float64(r0.ops.n), r0.proc
	m["go.allocs_per_op"] = num(ratio(float64(p.mallocs), ops))
	m["go.alloc_bytes_per_op"] = num(ratio(float64(p.allocBytes), ops))
	m["go.gc_cycles"] = num(float64(p.gcCycles))
	m["go.gc_pause_ms"] = num(ms(p.gcPause))
	m["go.heap_peak_mb"] = num(r0.peakHeapMB)
	m["proc.cpu_us_per_op"] = num(ratio(us(p.cpu), ops))
	m["host.ref_kernel_us"] = num(r0.refUS)

	// Each half's median is scaled to the reference speed, so host drift
	// between the halves does not read as tracing cost.
	traced, tok := percentile(r1.ops.ms, 50)
	untraced, uok := percentile(r0.ops.ms, 50)
	m["trace.overhead"] = value{ratio(traced*speedScale(r1), untraced*speedScale(r0)) - 1, tok && uok}
	m["trace.unattributed_share"] = num(ratio(unattributed(r1).Seconds(), r1.total.Seconds()))
	return m
}

func unattributed(r *runner) time.Duration {
	rest := r.total
	for _, p := range r.parts {
		rest -= p.d
	}
	return rest
}

// attributionTable renders how a traced phase's end-to-end time splits
// over the layers, largest first, with the unattributed rest last.
func attributionTable(r *runner) []string {
	parts := append([]part(nil), r.parts...)
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].d > parts[j].d })
	lines := []string{fmt.Sprintf("attribution of %.3fs, the sum of %s:", r.total.Seconds(), r.what)}
	for _, p := range append(parts, part{"unattributed", unattributed(r)}) {
		lines = append(lines, fmt.Sprintf("  %-13s %9.3fs %6.1f%%", p.layer, p.d.Seconds(), 100*ratio(p.d.Seconds(), r.total.Seconds())))
	}
	return lines
}
