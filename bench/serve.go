package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The daemon is assembled with cmd/smsd's defaults.
const (
	smsdWorkers = 4
	smsdQueue   = 64
)

// loadConns is the most connections any workload opens: one per core of
// the machine the bounds were measured on (nproc = 2), so the load
// generator never outnumbers the server's cores.
const loadConns = 2

// daemon is one in-process smsd: the registry and server exactly as
// cmd/smsd assembles them, served on a real loopback listener.
type daemon struct {
	ref  *exp.Registry // the bare registry, for in-process reference runs
	srv  *serve.Server
	http *httptest.Server
	dir  string // disk store directory, removed on close
}

func startDaemon(r *runner, store cas.Store, dir string) (*daemon, error) {
	ref, err := experiments.Default()
	if err != nil {
		return nil, err
	}
	reg, err := r.tr.wrapRegistry(ref, true)
	if err != nil {
		return nil, err
	}
	if r.cfg.wrapStore != nil {
		store = r.cfg.wrapStore(store)
	}
	srv, err := serve.NewServer(serve.Config{
		Registry:   reg,
		Store:      r.tr.wrapStore(store),
		Seed:       r.cfg.seed,
		Workers:    smsdWorkers,
		QueueDepth: smsdQueue,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{ref: ref, srv: srv, http: httptest.NewServer(r.tr.wrapHandler(srv)), dir: dir}, nil
}

func (d *daemon) close() {
	d.http.Close()
	d.srv.Close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// counters reads the daemon's exp and admission counters, less before.
func (d *daemon) counters(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, k := range []string{"exp.hits", "exp.misses", "exp.bytes", "serve.rejected"} {
		out[k] = d.srv.Metrics().Counter(k) - before[k]
	}
	return out
}

// --- serve-read ---------------------------------------------------------

// readPhase is the serve-read workload: reads of jobs completed in set-up,
// so no experiment body runs while it is timed.
type readPhase struct {
	d    *daemon
	c    *client
	jobs []servedJob
	list []byte
}

const readCallers = loadConns

func setupRead(r *runner) (phase, error) {
	d, err := startDaemon(r, cas.NewMemStore(), "")
	if err != nil {
		return nil, err
	}
	p := &readPhase{d: d, c: newClient(d.http.URL, loadConns, r.tr)}
	if p.jobs, err = primeJobs(p.c, d.srv, d.ref, r.cfg.seed); err == nil {
		p.list, _, err = p.c.expect(http.StatusOK, http.MethodGet, "/experiments", nil)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *readPhase) close() {
	p.c.close()
	p.d.close()
}

func (p *readPhase) measure(r *runner) {
	before := p.d.counters(nil)
	var wg sync.WaitGroup
	for caller := 0; caller < readCallers; caller++ {
		wg.Add(1)
		go func(rnd *rng.Rand) {
			defer wg.Done()
			for {
				if _, ok := r.take(); !ok {
					return
				}
				read, d, err := p.one(rnd, r.cfg.seed)
				r.rec.op(err)
				if err == nil {
					r.ops.add(d)
					if read {
						r.reads.add(d)
					}
				}
			}
		}(rng.New(par.SplitSeed(r.cfg.seed, caller)))
	}
	wg.Wait()
	r.counters = p.d.counters(before)
}

// badRequest is a malformed or unknown request and the code it must get.
type badRequest struct {
	method, path string
	body         []byte
	code         int
}

func badRequests(id string) []badRequest {
	return []badRequest{
		{http.MethodPost, "/experiments", []byte(`{"name":`), http.StatusBadRequest},
		{http.MethodPost, "/experiments", []byte(`{"nme":"continuum/io"}`), http.StatusBadRequest},
		{http.MethodPost, "/experiments", []byte(`{"name":"no/such-experiment","seed":1}`), http.StatusNotFound},
		{http.MethodGet, "/experiments/0000000000000000", nil, http.StatusNotFound},
		{http.MethodGet, "/experiments/" + id + "/artifacts/no-such-artifact", nil, http.StatusNotFound},
	}
}

// one sends one request drawn from the serve-read mix (per 1000: 600
// status, 300 artifact, 40 runpack, 30 re-submits, 10 list, 19 malformed,
// 1 /metrics) and checks the answer byte for byte against set-up. read
// reports whether it fetched a stored artifact or runpack.
func (p *readPhase) one(rnd *rng.Rand, seed int64) (read bool, d time.Duration, err error) {
	j := &p.jobs[rnd.Intn(len(p.jobs))]
	switch u := rnd.Intn(1000); {
	case u < 600:
		d, err = p.same(http.MethodGet, "/experiments/"+j.id, nil, j.status)
	case u < 900:
		a := j.names[rnd.Intn(len(j.names))]
		d, err = p.same(http.MethodGet, "/experiments/"+j.id+"/artifacts/"+a, nil, j.artifacts[a])
		read = true
	case u < 940:
		d, err = p.same(http.MethodGet, "/experiments/"+j.id+"/runpack", nil, j.runpack)
		read = true
	case u < 970:
		d, err = p.same(http.MethodPost, "/experiments", submitBody(j.name, seed), j.status)
	case u < 980:
		d, err = p.same(http.MethodGet, "/experiments", nil, p.list)
	case u < 999:
		bad := badRequests(j.id)
		b := bad[rnd.Intn(len(bad))]
		_, d, err = p.c.expect(b.code, b.method, b.path, b.body)
	default:
		var data []byte
		data, d, err = p.c.expect(http.StatusOK, http.MethodGet, "/metrics", nil)
		if err == nil && !bytes.Contains(data, []byte("serve_req_status")) {
			err = fmt.Errorf("GET /metrics: exposition lacks serve_req_status")
		}
	}
	return read, d, err
}

// same performs a request that must answer 200 with exactly want.
func (p *readPhase) same(method, path string, body, want []byte) (time.Duration, error) {
	data, d, err := p.c.expect(http.StatusOK, method, path, body)
	if err == nil && !bytes.Equal(data, want) {
		err = fmt.Errorf("%s %s: body differs from the bytes captured in set-up", method, path)
	}
	return d, err
}

// verify has nothing left to do: every answer was checked as it arrived.
func (p *readPhase) verify(*runner) {}

// attribute splits the requests' round trips into handler self time, cas
// calls inside handlers, /metrics rendering, the client's net/http and the
// tracer's own work. What is left is the server's net/http, the loopback
// and scheduling.
func (p *readPhase) attribute(r *runner) (string, time.Duration, []part) {
	t := r.tr
	var self time.Duration
	for _, ep := range handlerEndpoints {
		self += t.get("serve." + ep).sum
	}
	return "round trips", t.get("http.rtt").sum, []part{
		{"serve", self},
		{"cas", t.get("handler.cas").sum},
		{"telemetry", t.get("telemetry.prom").sum},
		{"http", t.get("http.client").sum},
		{"tracer", t.get("tracer").sum},
	}
}

// --- serve-cold and serve-durable ----------------------------------------

// jobPhase runs batches of fresh jobs: every submission misses the
// registry memo and executes its experiment body. Two callers each submit
// a batch, wait for it and fetch its artifacts, then submit the next.
// serve-cold runs over a MemStore with one connection per caller;
// serve-durable over a DiskStore with both callers on one connection and
// a reader of set-up jobs on a second.
type jobPhase struct {
	d      *daemon
	writer *client
	halves [2][]string // the registry in two fixed halves

	reader *client // serve-durable only
	jobs   []servedJob
}

// A primary operation is a batch of jobs, half the registry, so that both
// callers' batches fit the 64-deep admission queue at once. A single job
// takes a few milliseconds, which the 1 ms poll quantizes by up to half
// its length; a batch takes tens of milliseconds, so its latency repeats
// from run to run (bench/README.md has the numbers).
const batchCallers = loadConns

func setupCold(r *runner) (phase, error) {
	d, err := startDaemon(r, cas.NewMemStore(), "")
	if err != nil {
		return nil, err
	}
	return primeJobPhase(r, &jobPhase{d: d, writer: newClient(d.http.URL, loadConns, r.tr)})
}

func setupDurable(r *runner) (phase, error) {
	dir, err := os.MkdirTemp("", "smsbench-durable-")
	if err != nil {
		return nil, err
	}
	store, err := cas.NewDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d, err := startDaemon(r, store, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return primeJobPhase(r, &jobPhase{d: d, writer: newClient(d.http.URL, 1, r.tr), reader: newClient(d.http.URL, 1, r.tr)})
}

// primeJobPhase completes one job of every experiment at the root seed
// before timing starts. They are serve-durable's read set, and on both
// workloads they leave the daemon's seed-independent memos (the report
// sections) warm, as in a daemon that has been up for a while.
func primeJobPhase(r *runner, p *jobPhase) (phase, error) {
	p.halves = splitHalves(p.d.ref.Names())
	c := p.reader
	if c == nil {
		c = p.writer
	}
	var err error
	if p.jobs, err = primeJobs(c, p.d.srv, p.d.ref, r.cfg.seed); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// splitHalves deals the sorted names alternately into two halves, so each
// holds about half of every experiment family. Batch b runs half b%2, in
// name order; the seed draws only the job seeds. When a batch's names or
// their order came from the seed, the seed decided which costly jobs ran
// together and which finished first: one seed read the fetch p90 twice as
// high as another, in every run, and the serve-cold batch p90 and fetch
// p90 spread by up to 0.17 and 0.35 over 10 seeds.
func splitHalves(names []string) [2][]string {
	var h [2][]string
	for i, n := range names {
		h[i%2] = append(h[i%2], n)
	}
	return h
}

func (p *jobPhase) close() {
	p.writer.close()
	if p.reader != nil {
		p.reader.close()
	}
	p.d.close()
}

func (p *jobPhase) measure(r *runner) {
	before := p.d.counters(nil)
	var writers sync.WaitGroup
	for w := 0; w < batchCallers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				b, ok := r.take()
				if !ok {
					return
				}
				// half 0 is never the shorter, so job indices do not repeat.
				names, first := p.halves[b%2], b*len(p.halves[0])
				seeds := make([]int64, len(names))
				for k := range seeds {
					seeds[k] = par.SplitSeed(r.cfg.seed, first+k)
				}
				jobs, err := p.writer.runBatch(first, names, seeds)
				r.rec.op(err)
				if err != nil {
					continue
				}
				r.ops.add(jobs[len(jobs)-1].end.Sub(jobs[0].start))
				for _, j := range jobs {
					if p.reader == nil { // serve-durable's reads are its reader's
						r.reads.add(j.end.Sub(j.seen))
					}
					r.addJob(j)
				}
			}
		}()
	}
	if p.reader == nil {
		writers.Wait()
	} else {
		stop := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			p.read(r, stop)
		}()
		writers.Wait()
		close(stop)
		<-readerDone
	}
	r.counters = p.d.counters(before)
}

// read is serve-durable's reader: closed-loop GETs of artifacts (3 in 4)
// and runpacks of set-up jobs, checked byte for byte, until stop closes.
func (p *jobPhase) read(r *runner, stop <-chan struct{}) {
	rnd := rng.New(par.SplitSeed(r.cfg.seed, -1))
	for {
		select {
		case <-stop:
			return
		default:
		}
		j := &p.jobs[rnd.Intn(len(p.jobs))]
		path, want := "/experiments/"+j.id+"/runpack", j.runpack
		if rnd.Intn(4) < 3 {
			a := j.names[rnd.Intn(len(j.names))]
			path, want = "/experiments/"+j.id+"/artifacts/"+a, j.artifacts[a]
		}
		data, d, err := p.reader.expect(http.StatusOK, http.MethodGet, path, nil)
		if err == nil && !bytes.Equal(data, want) {
			err = fmt.Errorf("GET %s: body differs from the bytes captured in set-up", path)
		}
		r.rec.op(err)
		if err == nil {
			r.reads.add(d)
		}
	}
}

func (p *jobPhase) verify(r *runner) {
	if r.tr != nil {
		for _, j := range r.sortedJobs() {
			if js, ok := r.tr.job(j.id); ok {
				r.tr.record("runpack.seal", js.pubEnd.Sub(js.bodyEnd)-js.pubCAS-js.pubOver)
			}
		}
	}
	checkSample(r, p.writer, p.d.ref, p.d.srv.PackPublicKey())
}

// attribute walks each job's life in order — submit round trip, queue
// wait, body, publish (cas calls, then the rest: result encoding and
// runpack sealing), the client's poll lag, the artifact fetch — and
// charges each stretch of its latency to the first span covering it.
// The client awaits a batch in order, so a job's poll lag includes the
// wait for the jobs submitted before it. Stretches no span covers (client
// bookkeeping between requests) stay unattributed.
func (p *jobPhase) attribute(r *runner) (string, time.Duration, []part) {
	var total time.Duration
	sum := map[string]time.Duration{}
	for _, j := range r.sortedJobs() {
		total += j.latency()
		js, ok := r.tr.job(j.id)
		if !ok {
			continue
		}
		cursor := j.start
		charge := func(s, e time.Time) time.Duration {
			if s.Before(cursor) {
				s = cursor
			}
			if !e.After(s) {
				return 0
			}
			cursor = e
			return e.Sub(s)
		}
		// split charges a span's stretch to rest, less its cas and tracer time.
		split := func(d, inCAS, over time.Duration, rest string) {
			inCAS = min(inCAS, d)
			over = min(over, d-inCAS)
			sum["cas"] += inCAS
			sum["tracer"] += over
			sum[rest] += d - inCAS - over
		}
		sum["http"] += charge(j.start, j.posted)
		sum["queue"] += charge(clock.FromSeconds(j.submittedS), js.bodyStart)
		split(charge(js.bodyStart, js.bodyEnd), js.bodyCAS, js.bodyOver, "body")
		split(charge(js.bodyEnd, js.pubEnd), js.pubCAS, js.pubOver, "seal")
		sum["poll"] += charge(js.pubEnd, j.seen)
		sum["http"] += charge(j.seen, j.end)
	}
	var parts []part
	for _, k := range []string{"http", "queue", "body", "cas", "seal", "poll", "tracer"} {
		parts = append(parts, part{k, sum[k]})
	}
	return "job times (submit to artifact in hand)", total, parts
}
