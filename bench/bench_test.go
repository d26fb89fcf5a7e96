package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cas"
)

// declared is BENCHMARK.json, the contract the benchmark's output must meet.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type record struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// lastRecord parses the JSON record on the last line of a run's output.
func lastRecord(t *testing.T, out string) record {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("last line is not the JSON record: %v\n%s", err, out)
	}
	return rec
}

// tinyConfig runs a handful of operations with every correctness check on.
func tinyConfig(ops int) config {
	return config{seed: 1, ops: ops, goldens: "../goldens/runpacks", setups: 1}
}

var tinyOps = map[string]int{"serve-read": 200, "serve-cold": 2, "serve-durable": 2, "cli-batch": 1}

// TestSmoke runs every workload, untraced and traced, at a tiny operation
// count and checks the output against BENCHMARK.json: every declared
// metric is emitted with its declared unit, and nothing else is. With
// -short it skips the traced runs, which set each workload up twice more.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: declared %q, run %q", i, d.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want, mode := d.EndToEnd, "untraced"
			if traced {
				want, mode = d.PerLayer, "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				if traced && testing.Short() {
					t.Skip("traced run skipped in -short mode")
				}
				t.Parallel()
				var out bytes.Buffer
				ok := execute(w, tinyConfig(tinyOps[w.name]), traced, &out)
				rec := lastRecord(t, out.String())
				if !ok || !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rec.Correct, rec.Attempted, rec.Failed, out.String())
				}
				for _, m := range want {
					if !name.MatchString(m.Name) {
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
					}
					got, ok := rec.Metrics[m.Name]
					if !ok {
						t.Errorf("declared metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, declared %d", len(rec.Metrics), len(want))
				}
			})
		}
	}
}

// flipStore flips one byte of every blob it returns once armed.
type flipStore struct {
	cas.Store
	armed atomic.Bool
}

func (s *flipStore) Get(k cas.Key) ([]byte, bool, error) {
	data, ok, err := s.Store.Get(k)
	if s.armed.Load() && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x20
	}
	return data, ok, err
}

// TestFlippedByteIsCaught corrupts the store under serve-read after set-up:
// the per-request byte comparison must fail the reads it corrupts.
func TestFlippedByteIsCaught(t *testing.T) {
	t.Parallel()
	flip := &flipStore{}
	cfg := tinyConfig(300)
	cfg.wrapStore = func(s cas.Store) cas.Store { flip.Store = s; return flip }
	rec := &recorder{}
	r := newRunner(cfg, rec, nil)
	ph, err := setupRead(r)
	if err != nil {
		t.Fatal(err)
	}
	defer ph.close()
	flip.armed.Store(true)
	r.begin()
	ph.measure(r)
	r.end()
	if rec.failed.Load() == 0 {
		t.Fatalf("a store flipping bytes on Get passed serve-read: %d ops, 0 failed", rec.attempted.Load())
	}
}

// TestCorruptStoreFailsTheRun corrupts the store from the start: set-up's
// checks of the served bytes must fail the run, with a non-zero exit.
func TestCorruptStoreFailsTheRun(t *testing.T) {
	t.Parallel()
	flip := &flipStore{}
	flip.armed.Store(true)
	cfg := tinyConfig(50)
	cfg.wrapStore = func(s cas.Store) cas.Store { flip.Store = s; return flip }
	var out bytes.Buffer
	if execute(workloads[0], cfg, false, &out) {
		t.Fatalf("run over a corrupting store reported success:\n%s", out.String())
	}
	if rec := lastRecord(t, out.String()); rec.Correct || rec.Failed == 0 {
		t.Fatalf("record correct=%v failed=%d, want a failure:\n%s", rec.Correct, rec.Failed, out.String())
	}
}

// TestCorruptDigestIsCaught feeds serve-cold's sampled check a wrong
// expected digest: it must count a failure, not pass silently.
func TestCorruptDigestIsCaught(t *testing.T) {
	t.Parallel()
	rec := &recorder{}
	r := newRunner(tinyConfig(1), rec, nil)
	p, err := setupCold(r)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	r.begin()
	p.measure(r)
	r.end()
	if rec.failed.Load() != 0 {
		t.Fatalf("clean run failed %d ops: %v", rec.failed.Load(), rec.errs)
	}
	for i := range r.jobs {
		if r.jobs[i].index == 0 {
			r.jobs[i].sha[0] ^= 1
		}
	}
	p.verify(r)
	if rec.failed.Load() == 0 {
		t.Fatal("a corrupted expected digest passed the sample check")
	}
}

func TestPercentileResolution(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
		ok   bool
	}{
		{seq(100), 50, 50.5, true},
		{seq(100), 90, 90.1, true},   // exactly 10 samples above
		{seq(100), 99, 99.01, false}, // 1 sample above
		{seq(1000), 99, 990.01, true},
		{seq(19), 50, 10, false}, // 9 samples above
		{nil, 50, 0, false},
	} {
		got, ok := percentile(c.xs, c.p)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 1e-9) {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", len(c.xs), c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestUnresolvedIsNeverANumber checks both renderings of an unresolved
// percentile: null in the JSON record, "unresolved" in the report.
func TestUnresolvedIsNeverANumber(t *testing.T) {
	defs := []metricDef{{"op_p90_ms", "ms"}, {"ops_per_s", "1/s"}}
	m := map[string]value{"op_p90_ms": pct([]float64{1, 2, 3}, 90, false), "ops_per_s": num(12.5)}
	var rec record
	if err := json.Unmarshal(resultLine(true, &recorder{}, defs, m), &rec); err != nil {
		t.Fatal(err)
	}
	if v := rec.Metrics["op_p90_ms"].Value; v != nil {
		t.Errorf("unresolved p90 rendered as %v, want null", *v)
	}
	if v := rec.Metrics["ops_per_s"].Value; v == nil || *v != 12.5 {
		t.Errorf("ops_per_s rendered as %v", v)
	}
	var out bytes.Buffer
	report(&out, "x", machine{}, defs, m, nil, &recorder{})
	if !regexp.MustCompile(`op_p90_ms +unresolved`).MatchString(out.String()) {
		t.Errorf("report does not print the p90 as unresolved:\n%s", out.String())
	}
	// An idle layer's percentile reads 0 rather than unresolved.
	if v := pct(nil, 99, true); !v.ok || v.v != 0 {
		t.Errorf("idle per-layer percentile = %+v, want 0", v)
	}
}

// TestSpeedScaling checks that a run on a host slow enough to take the
// workloads twice as long reports halved times and a doubled rate, the heap
// as measured, and an unresolved percentile still unresolved.
func TestSpeedScaling(t *testing.T) {
	r := newRunner(config{seed: 1}, &recorder{}, nil)
	r.refUS = refKernelUS * math.Pow(2, 1/refExponent)
	r.setupS, r.setupHeapMB, r.wall = []float64{4}, []float64{3}, time.Second
	for i := 1; i <= 100; i++ {
		r.ops.add(time.Duration(i) * time.Millisecond)
	}
	r.reads.add(time.Millisecond)
	m := endToEndMetrics(r)
	for k, want := range map[string]float64{"setup_s": 2, "heap_setup_mb": 3, "ops_per_s": 200, "op_p50_ms": 25.25} {
		if v := m[k]; !v.ok || math.Abs(v.v-want) > 1e-9 {
			t.Errorf("%s = %+v, want %v", k, v, want)
		}
	}
	if v := m["read_p85_ms"]; v.ok {
		t.Errorf("read_p85_ms over one sample = %v, want unresolved", v.v)
	}
}

// TestRefusalsAndFailedJobsCount checks the accounting: a 429 and a job
// that ends failed are both failed operations.
func TestRefusalsAndFailedJobsCount(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experiments", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Name string }
		json.NewDecoder(r.Body).Decode(&req)
		if req.Name == "refused" {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1","state":"queued"}`))
	})
	mux.HandleFunc("GET /experiments/j1", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"j1","state":"failed","error":"boom"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newClient(srv.URL, 1, nil)
	defer c.close()

	rec := &recorder{}
	_, err := c.runBatch(0, []string{"refused"}, []int64{1})
	if !errors.Is(err, errRejected) {
		t.Errorf("429: err = %v, want errRejected", err)
	}
	rec.op(err)
	_, err = c.runBatch(1, []string{"fails"}, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed job: err = %v, want the job's error", err)
	}
	rec.op(err)
	if rec.attempted.Load() != 2 || rec.failed.Load() != 2 {
		t.Errorf("attempted=%d failed=%d, want 2 and 2", rec.attempted.Load(), rec.failed.Load())
	}
}
