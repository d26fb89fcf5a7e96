package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/cas"
	"repro/internal/clock"
)

// endpoints are the instrumented endpoint labels, in route order. Each gets
// a serve.req.<ep> counter and a serve.latency.<ep> series.
var endpoints = []string{"submit", "list", "status", "artifact", "runpack", "families", "family-submit", "metrics"}

// routes wires the Go 1.22 method+wildcard patterns onto the instrumented
// handlers.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experiments", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /experiments", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /experiments/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /experiments/{id}/artifacts/{name}", s.instrument("artifact", s.handleArtifact))
	mux.HandleFunc("GET /experiments/{id}/runpack", s.instrument("runpack", s.handleRunpack))
	mux.HandleFunc("GET /families", s.instrument("families", s.handleFamilies))
	mux.HandleFunc("POST /families/{name}", s.instrument("family-submit", s.handleFamilySubmit))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// codeWriter captures the response status code (default 200 on first write).
type codeWriter struct {
	http.ResponseWriter
	status int
}

func (c *codeWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *codeWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.ResponseWriter.Write(p)
}

// codeCounter maps the status codes the daemon emits onto precomputed
// counter names, so the hot path never formats a string per request.
var codeCounter = map[int]string{
	http.StatusOK:                 "serve.code.200",
	http.StatusAccepted:           "serve.code.202",
	http.StatusBadRequest:         "serve.code.400",
	http.StatusNotFound:           "serve.code.404",
	http.StatusConflict:           "serve.code.409",
	http.StatusGone:               "serve.code.410",
	http.StatusTooManyRequests:    "serve.code.429",
	http.StatusServiceUnavailable: "serve.code.503",
}

func countCode(code int) string {
	if n, ok := codeCounter[code]; ok {
		return n
	}
	return fmt.Sprintf("serve.code.%d", code)
}

// instrument wraps a handler with the per-endpoint telemetry contract:
// request counter, admission check (load-test mode), "serve.http" span,
// status-code counter, and the endpoint latency series. The observed
// latency is server-clock elapsed time plus the admission model's virtual
// latency — on a clock.Sim with synchronous handlers the elapsed part is
// zero and the series is exactly the deterministic model output.
func (s *Server) instrument(ep string, h http.HandlerFunc) http.HandlerFunc {
	reqC := "serve.req." + ep
	latS := "serve.latency." + ep
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clk.Now()
		s.met.Inc(reqC, 1)
		var modelS float64
		if s.cfg.Cost != nil {
			lat, ok := s.cfg.Cost.Admit(ep, r.URL.Path, clock.Seconds(start))
			if !ok {
				s.met.Inc("serve.rejected", 1)
				s.met.Inc("serve.code.429", 1)
				http.Error(w, "queue wait exceeds admission bound", http.StatusTooManyRequests)
				return
			}
			modelS = lat
		}
		cw := &codeWriter{ResponseWriter: w}
		sp := s.met.StartSpan(s.clk, "serve.http", ep)
		h(cw, r)
		sp.End(nil)
		if cw.status == 0 {
			cw.status = http.StatusOK
		}
		s.met.Inc(countCode(cw.status), 1)
		lat := s.clk.Since(start).Seconds() + modelS
		s.met.Observe(latS, lat)
		if s.cfg.Cost != nil {
			s.recordLatency(lat)
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, code, data)
}

func writeJSONBytes(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
	w.Write([]byte("\n"))
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a SubmitRequest and admits it: 202 on enqueue, 200
// when the (name, seed) pair is already known (idempotent dedup), 400 on
// malformed JSON, 404 on an unregistered name, 429 at a full queue, 503
// after Close.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed submit body: %v", err)
		return
	}
	if _, ok := s.cfg.Registry.Get(req.Name); !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q (GET /experiments lists them)", req.Name)
		return
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	j, code := s.submit(req.Name, seed)
	switch code {
	case http.StatusTooManyRequests:
		writeError(w, code, "admission queue full (%d deep)", s.cfg.QueueDepth)
	case http.StatusServiceUnavailable:
		writeError(w, code, "server closed")
	default:
		writeJSONBytes(w, code, s.statusBytes(j))
	}
}

// listResponse is the GET /experiments answer: the registered experiment
// names plus every known submission, both in deterministic order.
type listResponse struct {
	Experiments []string  `json:"experiments"`
	Jobs        []jobLine `json:"jobs,omitempty"`
}

type jobLine struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	State      string `json:"state"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	resp := listResponse{Experiments: s.cfg.Registry.Names()}
	s.mu.Lock()
	for _, j := range s.jobs {
		resp.Jobs = append(resp.Jobs, jobLine{ID: j.id, Experiment: j.name, State: j.state})
	}
	s.mu.Unlock()
	sort.Slice(resp.Jobs, func(i, k int) bool { return resp.Jobs[i].ID < resp.Jobs[k].ID })
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no submission %q", r.PathValue("id"))
		return
	}
	writeJSONBytes(w, http.StatusOK, s.statusBytes(j))
}

// handleArtifact streams one artifact of a completed job straight from the
// content-addressed store: no experiment code runs, warm or cold.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	target, data, ok := s.fetch(w, id, "artifact", name, func() cas.Key { return artifactLink(id, name) })
	if !ok {
		return
	}
	s.met.Inc("serve.artifact.bytes", int64(len(data)))
	// The link target is the blob's content address, so the digest header
	// lets a client integrity-check the body offline. A DiskStore re-hashes
	// what it reads: bytes that no longer match are fetch's 500, never a
	// body under this header.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Digest", "sha256:"+string(target))
	w.Write(data)
}

// handleRunpack serves the job's sealed runpack bundle: the canonical
// manifest, its ed25519 signature, and every artifact blob in one JSON
// document a client can verify fully offline against PackPublicKey (see
// cmd/runpack verify -pubkey).
func (s *Server) handleRunpack(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	target, data, ok := s.fetch(w, id, "runpack", "", func() cas.Key { return runpackLink(id) })
	if !ok {
		return
	}
	s.met.Inc("serve.runpack.bytes", int64(len(data)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Digest", "sha256:"+string(target))
	if pub := s.packKey.Public(); pub != "" {
		w.Header().Set("X-Runpack-Pubkey", pub)
	}
	w.Write(data)
}

// fetch recalls what done job id published under link. Unless it returns
// ok it has answered: 404 for an unknown job or an absent link, 409 before
// the job completes or when it failed, 410 when the link dangles (blob
// evicted), 500 on a store error. what and name (may be empty) name the
// blob in those answers.
func (s *Server) fetch(w http.ResponseWriter, id, what, name string, link func() cas.Key) (cas.Key, []byte, bool) {
	j, ok := s.lookupJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no submission %q", id)
		return "", nil, false
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	switch state {
	case StateDone:
	case StateFailed:
		writeError(w, http.StatusConflict, "submission %s failed; no %s", id, what)
		return "", nil, false
	default:
		writeError(w, http.StatusConflict, "submission %s not complete yet", id)
		return "", nil, false
	}
	target, data, found, err := cas.Recall(s.store, link())
	if found {
		return target, data, true
	}
	if name != "" {
		what += " " + strconv.Quote(name)
	}
	switch {
	case err != nil:
		writeError(w, http.StatusInternalServerError, "reading %s: %v", what, err)
	case target != "":
		writeError(w, http.StatusGone, "%s evicted from store", what)
	default:
		writeError(w, http.StatusNotFound, "submission %s has no %s", id, what)
	}
	return "", nil, false
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(s.met.PromText()))
}
