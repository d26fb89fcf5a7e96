package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/exp"
	"repro/internal/serve"
)

// tracer collects per-layer timings for a traced run. Every span is
// recorded from the benchmark's own wrappers around the calls into a
// layer — a cas.Store wrapper, a wrapper around each experiment body, an
// http.Handler wrapper and client-side request hooks — so nothing under
// internal/ changes.
//
// Self time needs to know which cas calls happen inside which handler or
// body. Go has no goroutine-local storage, so the tracer keys open frames
// by goroutine id, parsed from runtime.Stack. That lookup walks the stack
// and costs several microseconds, so the tracer times its own work, keeps
// it out of every span it measures, and reports it as the "tracer" series.
//
// All methods are safe on a nil *tracer and do nothing, so untraced phases
// call them unconditionally.
type tracer struct {
	paused atomic.Bool
	open   atomic.Int64 // len(frames): with none open, cas calls skip the lookup

	mu     sync.Mutex
	frames map[int64]*frame
	series map[string]*series
	bytes  map[string]int64
	jobs   map[string]*jobSpan // serve.JobID → the job's body and publish spans
}

// series is one timed span kind: count, total, and per-call samples (µs).
type series struct {
	n   int
	sum time.Duration
	us  []float64
}

// frame is an open handler or body span on one goroutine, or the publish
// span that follows a serve job's body until the worker's next job.
type frame struct {
	child time.Duration // cas time inside the frame
	over  time.Duration // the tracer's own time inside the frame
	job   *jobSpan      // set on publish frames
}

// jobSpan is the server side of one serve job, on the wall clock.
type jobSpan struct {
	bodyStart, bodyEnd time.Time
	bodyCAS, bodyOver  time.Duration // cas and tracer time inside the body
	pubEnd             time.Time     // end of the job's last cas call
	pubCAS, pubOver    time.Duration // cas and tracer time from bodyEnd to pubEnd
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far and resumes recording: the
// timed phase starts from a clean slate after set-up.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.frames = map[int64]*frame{}
	t.series = map[string]*series{}
	t.bytes = map[string]int64{}
	t.jobs = map[string]*jobSpan{}
	t.open.Store(0)
	t.mu.Unlock()
	t.paused.Store(false)
}

// pause stops the wrappers from recording, so post-phase checks do not
// pollute the layer numbers. Spans the benchmark times itself (runpack
// verify) still record.
func (t *tracer) pause() {
	if t != nil {
		t.paused.Store(true)
	}
}

func (t *tracer) on() bool { return t != nil && !t.paused.Load() }

// addLocked records one span of kind k. Callers hold t.mu.
func (t *tracer) addLocked(k string, d time.Duration) {
	s := t.series[k]
	if s == nil {
		s = &series{}
		t.series[k] = s
	}
	s.n++
	s.sum += d
	s.us = append(s.us, us(d))
}

// time records one span the benchmark timed itself, from start to now.
func (t *tracer) time(k string, start time.Time) {
	if t != nil {
		t.record(k, since(start))
	}
}

// record adds one span of kind k, paused or not.
func (t *tracer) record(k string, d time.Duration) {
	t.mu.Lock()
	t.addLocked(k, d)
	t.mu.Unlock()
}

func (t *tracer) get(k string) series {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.series[k]; s != nil {
		return *s
	}
	return series{}
}

func (t *tracer) byteCount(k string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes[k]
}

// goid returns the current goroutine's id from the first line of its stack
// trace ("goroutine 42 [running]:").
func goid() int64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// openFrame opens f on goroutine g, replacing a publish frame left there.
func (t *tracer) openFrame(g int64, f *frame) {
	t.mu.Lock()
	if t.frames[g] == nil {
		t.open.Add(1)
	}
	t.frames[g] = f
	t.mu.Unlock()
}

// closeFrameLocked closes g's frame. Callers hold t.mu.
func (t *tracer) closeFrameLocked(g int64) {
	if _, ok := t.frames[g]; ok {
		delete(t.frames, g)
		t.open.Add(-1)
	}
}

// wrapStore returns s wrapped in a timing cas.Store (s itself when t is nil).
func (t *tracer) wrapStore(s cas.Store) cas.Store {
	if t == nil {
		return s
	}
	return &timedStore{Store: s, t: t}
}

// timedStore times Put, Get, Link and Resolve and counts the bytes moved.
// Keys, Links and Bytes pass through untimed.
type timedStore struct {
	cas.Store
	t *tracer
}

// enter starts a store call: t0 is when the wrapper was entered, start
// when the call itself begins; the goroutine lookup lies between them.
func (s *timedStore) enter() (g int64, t0, start time.Time) {
	t0 = now()
	if s.t.open.Load() > 0 {
		g = goid()
	}
	return g, t0, now()
}

func (s *timedStore) exit(op string, g int64, t0, start time.Time, n int) {
	if !s.t.on() {
		return
	}
	end := now()
	d, over := end.Sub(start), start.Sub(t0)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.addLocked("cas."+op, d)
	s.t.addLocked("tracer", over)
	s.t.bytes["cas."+op] += int64(n)
	if f := s.t.frames[g]; f != nil {
		f.child += d
		f.over += over
		if f.job != nil {
			f.job.pubCAS += d
			f.job.pubOver += over
			f.job.pubEnd = end
		}
	}
}

func (s *timedStore) Put(data []byte) (cas.Key, error) {
	g, t0, start := s.enter()
	k, err := s.Store.Put(data)
	s.exit("put", g, t0, start, len(data))
	return k, err
}

func (s *timedStore) Get(k cas.Key) ([]byte, bool, error) {
	g, t0, start := s.enter()
	data, ok, err := s.Store.Get(k)
	s.exit("get", g, t0, start, len(data))
	return data, ok, err
}

func (s *timedStore) Link(name, target cas.Key) error {
	g, t0, start := s.enter()
	err := s.Store.Link(name, target)
	s.exit("link", g, t0, start, 0)
	return err
}

// Resolve also closes a publish frame on its goroutine: a serve worker's
// first store call for its next job is the registry's memo lookup.
func (s *timedStore) Resolve(name cas.Key) (cas.Key, bool, error) {
	g, t0, _ := s.enter()
	s.t.mu.Lock()
	if f := s.t.frames[g]; f != nil && f.job != nil {
		s.t.closeFrameLocked(g)
	}
	s.t.mu.Unlock()
	start := now()
	k, ok, err := s.Store.Resolve(name)
	s.exit("resolve", g, t0, start, 0)
	return k, ok, err
}

// namespace is an experiment's registry namespace: "scenario/3.1/x" →
// "scenario", "report.full" → "report".
func namespace(name string) string {
	if i := strings.IndexAny(name, "/."); i >= 0 {
		return name[:i]
	}
	return name
}

// wrapRegistry rebuilds reg with every experiment body wrapped by a timer.
// Specs and the registry name are unchanged, so fingerprints, memo keys
// and manifests are the same as the bare registry's. With serving set,
// each body also opens the publish frame of its serve job.
func (t *tracer) wrapRegistry(reg *exp.Registry, serving bool) (*exp.Registry, error) {
	if t == nil {
		return reg, nil
	}
	out := exp.NewRegistry()
	out.SetName(reg.Name())
	for _, e := range reg.Experiments() {
		run, kind := e.Run, "body."+namespace(e.Spec.Name)
		e.Run = func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			if !t.on() {
				return run(ctx, env, spec)
			}
			t0 := now()
			g := goid()
			f := &frame{}
			t.openFrame(g, f)
			start := now()
			res, err := run(ctx, env, spec)
			end := now()
			t.mu.Lock()
			defer t.mu.Unlock()
			own := start.Sub(t0)
			f.over += own
			t.addLocked("tracer", own)
			t.addLocked(kind, end.Sub(t0)-f.over)
			if !serving {
				t.closeFrameLocked(g)
				return res, err
			}
			js := &jobSpan{bodyStart: t0, bodyEnd: end, bodyCAS: f.child, bodyOver: f.over, pubEnd: end}
			t.jobs[serve.JobID(spec.Name, env.Seed)] = js
			t.frames[g] = &frame{job: js}
			return res, err
		}
		if err := out.Register(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// endpoint classifies a served request the way the per-layer metrics name
// it; every 4xx/5xx answer is "bad".
func endpoint(r *http.Request, code int) string {
	p := r.URL.Path
	switch {
	case code >= 400:
		return "bad"
	case p == "/metrics":
		return "metrics"
	case p == "/experiments" && r.Method == http.MethodPost:
		return "submit"
	case p == "/experiments":
		return "list"
	case strings.Contains(p, "/artifacts/"):
		return "artifact"
	case strings.HasSuffix(p, "/runpack"):
		return "runpack"
	default:
		return "status"
	}
}

// countingWriter records the status code and body size of a response.
type countingWriter struct {
	http.ResponseWriter
	code int
	n    int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return w.ResponseWriter.Write(p)
}

// wrapHandler times each request through h: "handler" is the whole call,
// "serve.<endpoint>" its self time (less the cas calls and the tracer's
// own work inside it), and /metrics is "telemetry.prom".
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := now()
		g := goid()
		f := &frame{}
		cw := &countingWriter{ResponseWriter: w}
		t.openFrame(g, f)
		start := now()
		h.ServeHTTP(cw, r)
		end := now()
		ep := endpoint(r, cw.code)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.closeFrameLocked(g)
		own := start.Sub(t0)
		f.over += own
		t.addLocked("tracer", own)
		t.addLocked("handler", end.Sub(t0))
		t.addLocked("handler.cas", f.child)
		self := end.Sub(t0) - f.child - f.over
		if ep == "metrics" {
			t.addLocked("telemetry.prom", self)
			t.bytes["telemetry.prom"] += int64(cw.n)
		} else {
			t.addLocked("serve."+ep, self)
		}
	})
}

// clientTiming holds one request's client-side net/http events as offsets
// from its start. The hooks run on the transport's own goroutines, hence
// the atomics.
type clientTiming struct {
	start            time.Time
	wrote, firstByte atomic.Int64
}

// withTiming attaches httptrace hooks to req when tracing.
func (t *tracer) withTiming(req *http.Request, start time.Time) (*http.Request, *clientTiming) {
	if !t.on() {
		return req, nil
	}
	ct := &clientTiming{start: start}
	return req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { ct.wrote.Store(int64(since(ct.start))) },
		GotFirstResponseByte: func() { ct.firstByte.Store(int64(since(ct.start))) },
	})), ct
}

// request records one round trip: "http.rtt" is send to last body byte,
// "http.client" the part the client's net/http spends on its side —
// waiting for a connection and writing the request, then reading the body
// after its first byte arrived.
func (t *tracer) request(rtt time.Duration, ct *clientTiming) {
	if ct == nil || !t.on() {
		return
	}
	wrote, first := time.Duration(ct.wrote.Load()), time.Duration(ct.firstByte.Load())
	if wrote == 0 || first == 0 {
		return
	}
	t.mu.Lock()
	t.addLocked("http.rtt", rtt)
	t.addLocked("http.client", wrote+rtt-first)
	t.mu.Unlock()
}

// job returns the server-side spans of a serve job.
func (t *tracer) job(id string) (jobSpan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	js, ok := t.jobs[id]
	if !ok {
		return jobSpan{}, false
	}
	return *js, true
}
