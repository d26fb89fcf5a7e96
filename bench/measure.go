package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/stats"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: with fewer, one outlier more or less moves it, so
// it is printed as unresolved instead of as a number.
const minBeyond = 10

// minTimedOps keeps a timed phase running past its deadline until this many
// primary operations were taken, so that a p90 always has minBeyond samples
// beyond it, even on a slow machine.
const minTimedOps = 100

func now() time.Time                  { return clock.System.Now() }
func since(t time.Time) time.Duration { return clock.System.Since(t) }
func ms(d time.Duration) float64      { return float64(d) / 1e6 }
func us(d time.Duration) float64      { return float64(d) / 1e3 }

// percentile returns the p-th percentile of xs (p in [0,100], linear
// interpolation) and whether it is resolved: at least minBeyond samples lie
// strictly above it.
func percentile(xs []float64, p float64) (float64, bool) {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0, false
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyond
}

// recorder counts operations and failures. Every operation is counted once
// when attempted; a correctness check that fails afterwards marks it failed.
type recorder struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string // the first few failures, for the report
}

// op counts one attempted operation, failed when err is non-nil.
func (r *recorder) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

// fail marks an already-counted operation as failed.
func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // timed-phase length when ops is 0
	ops     int     // fixed number of primary operations, set by the tests (0 = run for seconds)
	goldens string  // golden runpack directory for the cli-batch regress step
	setups  int     // set-ups per untraced run; setup_s is their median
	// wrapStore, when set, wraps every server store (fault injection).
	wrapStore func(cas.Store) cas.Store
}

// runner is the state one workload execution shares between its set-up,
// timed and checking phases.
type runner struct {
	cfg config
	rec *recorder
	tr  *tracer // nil on untraced phases

	taken    atomic.Int64
	deadline time.Time
	start    time.Time
	wall     time.Duration

	ops   *latencies // primary operations
	reads *latencies // fetches of an already-computed result

	mu   sync.Mutex
	jobs []jobRecord

	// Written by the measuring goroutine only.
	steps    map[string]time.Duration // cli-batch per-step totals
	counters map[string]int64         // exp and admission counters over the phase

	// Filled in by timedRun.
	setupS      []float64
	setupHeapMB []float64 // live heap after each set-up
	peakHeapMB  float64   // peak live heap of the timed phase
	refUS       float64   // the speed probe's median reference-kernel time
	proc        procCounters
	what        string        // what the attributed end-to-end time sums
	total       time.Duration // its length
	parts       []part
}

func newRunner(cfg config, rec *recorder, tr *tracer) *runner {
	return &runner{cfg: cfg, rec: rec, tr: tr, steps: map[string]time.Duration{}, counters: map[string]int64{},
		ops: newLatencies(cfg.seed), reads: newLatencies(cfg.seed + 1)}
}

// begin opens the timed phase.
func (r *runner) begin() {
	r.start = now()
	r.deadline = r.start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	r.tr.reset()
}

// end closes the timed phase.
func (r *runner) end() {
	r.wall = since(r.start)
	r.tr.pause()
}

// take claims the next primary operation. It returns its index and whether
// the phase still runs: a fixed count when cfg.ops is set, otherwise until
// the deadline (and at least minTimedOps operations).
func (r *runner) take() (int, bool) {
	i := r.taken.Add(1) - 1
	if r.cfg.ops > 0 {
		return int(i), i < int64(r.cfg.ops)
	}
	return int(i), i < minTimedOps || now().Before(r.deadline)
}

// sampleCap bounds the latencies a run keeps. Past it, the kept ones are a
// uniform random sample of all of them (reservoir sampling), so the
// benchmark's own memory does not grow with the run and inflate the heap
// it measures. A p99 over a full sample has 1000 samples beyond it.
const sampleCap = 100_000

// latencies records operation latencies. Read its fields only after the
// goroutines adding to it have finished.
type latencies struct {
	mu  sync.Mutex
	n   int           // every latency added
	sum time.Duration // their total
	ms  []float64     // a uniform sample of at most sampleCap of them, in ms
	rnd *rng.Rand
}

func newLatencies(seed int64) *latencies {
	return &latencies{ms: make([]float64, 0, sampleCap), rnd: rng.New(seed)}
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	l.sum += d
	if len(l.ms) < sampleCap {
		l.ms = append(l.ms, ms(d))
	} else if i := l.rnd.Intn(l.n); i < sampleCap {
		l.ms[i] = ms(d)
	}
}

func (r *runner) addJob(j jobRecord) {
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// sortedJobs returns the completed jobs in submission-index order.
func (r *runner) sortedJobs() []jobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]jobRecord(nil), r.jobs...)
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// liveHeap is the runtime/metrics name of the live Go heap: what the last
// garbage collection marked reachable.
const liveHeap = "/gc/heap/live:bytes"

// liveHeapMB runs a full collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// heapSampler records the peak live Go heap at 10 Hz through
// runtime/metrics, which reads without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64 // bytes; written by the sampling goroutine until done closes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: liveHeap}}
	read := func() {
		metrics.Read(sample)
		if v := float64(sample[0].Value.Uint64()); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		read()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return h.peak / (1 << 20)
}

// procCounters are process-wide cumulative counters read at both ends of a
// timed phase.
type procCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procCounters{
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc,
		gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs), cpu: cpu,
	}
}

func (p procCounters) minus(q procCounters) procCounters {
	return procCounters{
		mallocs: p.mallocs - q.mallocs, allocBytes: p.allocBytes - q.allocBytes,
		gcCycles: p.gcCycles - q.gcCycles, gcPause: p.gcPause - q.gcPause, cpu: p.cpu - q.cpu,
	}
}

// machine is the stamp printed with every run record: the facts about the
// host that decide how its numbers read (a one-core machine cannot show
// parallel speed-up; a coarse timer cannot pace an open loop).
type machine struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Seconds     float64 `json:"seconds"`
	Attempted   int64   `json:"attempted"`
	PrimaryOps  int     `json:"primary_ops"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	OS          string  `json:"os"`
	Arch        string  `json:"arch"`
	SleepOverUS float64 `json:"sleep_100us_overshoot_p50_us"`
	RefKernelUS float64 `json:"ref_kernel_us"` // the speed probe's median; see speed.go
}

// sleepOvershoot measures how late clock.System.Sleep(100µs) returns, as
// the median over a few dozen sleeps.
func sleepOvershoot() float64 {
	const want = 100 * time.Microsecond
	over := make([]float64, 0, 40)
	for i := 0; i < cap(over); i++ {
		t := now()
		clock.System.Sleep(want)
		over = append(over, us(since(t)-want))
	}
	return median(over)
}

func stampMachine(workload string, cfg config, traced bool, attempted int64, primary int, refUS float64) machine {
	return machine{
		Workload: workload, Seed: cfg.seed, Trace: traced, Seconds: cfg.seconds,
		Attempted: attempted, PrimaryOps: primary, RefKernelUS: math.Round(refUS*10) / 10,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		SleepOverUS: math.Round(sleepOvershoot()*10) / 10,
	}
}

func (m machine) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s %s/%s sleep(100µs) overshoot p50=%.1fµs reference kernel p50=%.1fµs",
		m.GOMAXPROCS, m.NumCPU, m.GoVersion, m.OS, m.Arch, m.SleepOverUS, m.RefKernelUS)
}
