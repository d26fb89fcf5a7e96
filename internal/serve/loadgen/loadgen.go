// Package loadgen is the deterministic load generator for the smsd daemon:
// it replays millions of HTTP requests against a serve.Server entirely
// in-process (no sockets, no goroutine per request), driving simulated time
// forward between requests and drawing every random choice from one
// internal/rng stream. Against a server on the same clock.Sim with a
// CostModel installed, a run is a pure function of (profile, seeds): the
// /metrics exposition it ends with is byte-identical across runs and across
// server worker counts — the serving stack's analogue of the repository's
// worker-count-invariance contract, and the property the golden test and
// the serve leg of `make bench-gate` hold.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Profile parameterizes a load run. The weights pick the endpoint mix; Bad
// requests rotate through the malformed-input cases (bad JSON, unknown
// experiment, unknown submission, unknown artifact), so error paths stay on
// the replay's instruction diet too.
type Profile struct {
	// Requests is the steady-state request count (after the warmup phase
	// that submits every experiment once and drains the queue).
	Requests int
	// Seed drives the generator's endpoint/name/gap draws.
	Seed int64
	// Names are the experiment names in play (must be registered).
	Names []string
	// Endpoint weights (relative). Zero-valued profiles get DefaultWeights.
	SubmitWeight, StatusWeight, ArtifactWeight, ListWeight, BadWeight int
	// MeanGapS is the mean inter-request gap in simulated seconds
	// (exponentially distributed).
	MeanGapS float64
	// Bursts: every BurstEvery requests, BurstLen consecutive requests
	// arrive with zero gap — the overload phase that exercises the
	// admission model's 429 path.
	BurstEvery, BurstLen int
}

// DefaultProfile returns the standard mix over the given names: mostly
// status polls, a third artifact fetches, a trickle of submits, lists and
// malformed requests, 300µs mean gap, and a 1500-request burst every 5000.
func DefaultProfile(requests int, seed int64, names []string) Profile {
	return Profile{
		Requests: requests, Seed: seed, Names: names,
		SubmitWeight: 5, StatusWeight: 60, ArtifactWeight: 30, ListWeight: 1, BadWeight: 4,
		MeanGapS:   300e-6,
		BurstEvery: 5000, BurstLen: 1500,
	}
}

// Report is the outcome of a load run.
type Report struct {
	// Requests is the steady-state request count actually driven.
	Requests int
	// Endpoints and Codes tally the mix by endpoint label and HTTP status.
	Endpoints map[string]int
	Codes     map[int]int
	// Rejected counts 429 answers (admission-model and queue-full alike).
	Rejected int
	// Latency summarizes the modeled request latencies (server-side).
	Latency serve.LatencyStats
	// Prom is the final /metrics exposition — the byte-comparable artifact.
	Prom string
}

// Driver replays a Profile request by request. It is single-threaded by
// design: determinism of the admission model requires a deterministic
// request order.
type Driver struct {
	srv  *serve.Server
	sim  *clock.Sim
	p    Profile
	r    *rng.Rand
	ids  []string            // job ID per profile name
	arts map[string][]string // artifact names per experiment, sorted
	i    int
	rep  Report

	// One request object and one sink are reused for every dispatch:
	// http.ServeMux rewrites its match state per call, so sequential reuse
	// is safe and keeps the hot path nearly allocation-free.
	req  http.Request
	u    url.URL
	sink sink
}

// sink is the discarding ResponseWriter for steady-state requests.
type sink struct {
	h      http.Header
	status int
	n      int
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int) {
	if s.status == 0 {
		s.status = c
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += len(p)
	return len(p), nil
}

// capture is the body-keeping ResponseWriter for the handful of responses
// the driver actually reads (warmup statuses, the final exposition).
type capture struct {
	sink
	body bytes.Buffer
}

func (c *capture) Write(p []byte) (int, error) {
	c.sink.Write(p)
	return c.body.Write(p)
}

// NewDriver validates the profile and runs the warmup phase: submit every
// name once, drain the queue, then read each submission's status to learn
// its artifact names. After NewDriver returns, every job is terminal and
// the steady-state mix can only produce deterministic answers.
func NewDriver(srv *serve.Server, sim *clock.Sim, p Profile) (*Driver, error) {
	if p.SubmitWeight+p.StatusWeight+p.ArtifactWeight+p.ListWeight+p.BadWeight == 0 {
		d := DefaultProfile(p.Requests, p.Seed, p.Names)
		d.MeanGapS = p.MeanGapS
		if d.MeanGapS == 0 {
			d.MeanGapS = 300e-6
		}
		p = d
	}
	if len(p.Names) == 0 {
		return nil, fmt.Errorf("loadgen: profile has no experiment names")
	}
	if p.BurstEvery <= 0 {
		p.BurstEvery = 1 << 62 // no bursts
		p.BurstLen = 0
	}
	d := &Driver{
		srv:  srv,
		sim:  sim,
		p:    p,
		r:    rng.New(p.Seed),
		arts: map[string][]string{},
	}
	d.req.Proto = "HTTP/1.1"
	d.req.ProtoMajor, d.req.ProtoMinor = 1, 1
	d.req.Host = "smsd.local"
	d.sink.h = http.Header{}
	d.rep.Endpoints = map[string]int{}
	d.rep.Codes = map[int]int{}

	for _, name := range p.Names {
		body, _ := json.Marshal(serve.SubmitRequest{Name: name})
		var cw capture
		cw.h = http.Header{}
		d.dispatch(&cw, http.MethodPost, "/experiments", body)
		if cw.status != http.StatusAccepted && cw.status != http.StatusOK {
			return nil, fmt.Errorf("loadgen: warmup submit %q answered %d: %s", name, cw.status, cw.body.String())
		}
		var st serve.StatusResponse
		if err := json.Unmarshal(cw.body.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("loadgen: warmup submit %q: %w", name, err)
		}
		d.ids = append(d.ids, st.ID)
	}
	srv.Wait()
	for i, name := range p.Names {
		var cw capture
		cw.h = http.Header{}
		d.dispatch(&cw, http.MethodGet, "/experiments/"+d.ids[i], nil)
		var st serve.StatusResponse
		if err := json.Unmarshal(cw.body.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("loadgen: warmup status %q: %w", name, err)
		}
		if st.State != serve.StateDone {
			return nil, fmt.Errorf("loadgen: warmup %q ended %s: %s", name, st.State, st.Error)
		}
		d.arts[name] = st.Artifacts
	}
	return d, nil
}

// dispatch routes one request through the server's handler chain in-process.
func (d *Driver) dispatch(w http.ResponseWriter, method, path string, body []byte) {
	d.u = url.URL{Path: path}
	d.req.Method = method
	d.req.URL = &d.u
	d.req.RequestURI = path
	if body != nil {
		d.req.Body = io.NopCloser(bytes.NewReader(body))
	} else {
		d.req.Body = http.NoBody
	}
	d.srv.ServeHTTP(w, &d.req)
}

// Step drives one steady-state request: advance simulated time (unless
// inside a burst), draw an endpoint from the weighted mix, dispatch, tally.
// Every random draw happens in a fixed order regardless of response codes,
// so the rng stream — and hence the whole replay — stays aligned across
// server configurations.
func (d *Driver) Step() {
	i := d.i
	d.i++
	if i%d.p.BurstEvery >= d.p.BurstLen {
		gap := d.r.ExpFloat64() * d.p.MeanGapS
		d.sim.Advance(time.Duration(gap * float64(time.Second)))
	}
	total := d.p.SubmitWeight + d.p.StatusWeight + d.p.ArtifactWeight + d.p.ListWeight + d.p.BadWeight
	w := d.r.Intn(total)
	n := d.r.Intn(len(d.p.Names)) // name draw is unconditional: keeps the stream aligned
	name, id := d.p.Names[n], d.ids[n]

	var ep string
	d.sink.status = 0
	switch {
	case w < d.p.SubmitWeight:
		ep = "submit"
		body, _ := json.Marshal(serve.SubmitRequest{Name: name})
		d.dispatch(&d.sink, http.MethodPost, "/experiments", body)
	case w < d.p.SubmitWeight+d.p.StatusWeight:
		ep = "status"
		d.dispatch(&d.sink, http.MethodGet, "/experiments/"+id, nil)
	case w < d.p.SubmitWeight+d.p.StatusWeight+d.p.ArtifactWeight:
		ep = "artifact"
		if arts := d.arts[name]; len(arts) > 0 {
			d.dispatch(&d.sink, http.MethodGet, "/experiments/"+id+"/artifacts/"+arts[d.r.Intn(len(arts))], nil)
		} else {
			// An artifact-less experiment degrades to a status poll.
			d.dispatch(&d.sink, http.MethodGet, "/experiments/"+id, nil)
		}
	case w < d.p.SubmitWeight+d.p.StatusWeight+d.p.ArtifactWeight+d.p.ListWeight:
		ep = "list"
		d.dispatch(&d.sink, http.MethodGet, "/experiments", nil)
	default:
		ep = "bad"
		switch d.r.Intn(4) {
		case 0:
			d.dispatch(&d.sink, http.MethodPost, "/experiments", []byte(`{"name": nope`))
		case 1:
			d.dispatch(&d.sink, http.MethodPost, "/experiments", []byte(`{"name":"no/such/experiment"}`))
		case 2:
			d.dispatch(&d.sink, http.MethodGet, "/experiments/deadbeefdeadbeef", nil)
		case 3:
			d.dispatch(&d.sink, http.MethodGet, "/experiments/"+id+"/artifacts/no-such-artifact", nil)
		}
	}
	d.rep.Requests++
	d.rep.Endpoints[ep]++
	d.rep.Codes[d.sink.status]++
	if d.sink.status == http.StatusTooManyRequests {
		d.rep.Rejected++
	}
}

// Finish settles the run: advance simulated time past any modeled backlog,
// fetch the final /metrics exposition, and return the report. The metrics
// fetch itself is instrumented traffic, so the exposition includes every
// steady-state request but not its own latency observation (which lands
// after rendering).
func (d *Driver) Finish() (Report, error) {
	d.sim.Advance(time.Second)
	var cw capture
	cw.h = http.Header{}
	d.dispatch(&cw, http.MethodGet, "/metrics", nil)
	if cw.status != http.StatusOK {
		return Report{}, fmt.Errorf("loadgen: /metrics answered %d", cw.status)
	}
	d.rep.Prom = cw.body.String()
	d.rep.Latency = d.srv.LatencySummary()
	return d.rep, nil
}

// Run replays a whole profile: warmup, Requests steps, settle.
func Run(srv *serve.Server, sim *clock.Sim, p Profile) (Report, error) {
	d, err := NewDriver(srv, sim, p)
	if err != nil {
		return Report{}, err
	}
	for i := 0; i < p.Requests; i++ {
		d.Step()
	}
	return d.Finish()
}
