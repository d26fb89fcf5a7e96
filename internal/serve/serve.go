// Package serve is the smsd experiment daemon: a standard-library net/http
// service over the unified experiment registry (internal/exp). Clients
// submit a registered experiment by name, poll its status, and stream its
// cas-backed artifacts; /metrics exposes the registry's Prometheus text
// exposition.
//
// The daemon inherits the repository's reproducibility contract instead of
// abandoning it at the HTTP boundary:
//
//   - Admission is a bounded queue in front of a fixed worker pool: a full
//     queue answers 429 immediately, never blocks the handler.
//   - Every timestamp is read through the injected clock.Clock. On a
//     *clock.Sim the daemon becomes a deterministic component: the loadgen
//     subpackage replays millions of requests in-process and renders
//     byte-identical /metrics output across runs and worker counts.
//   - Each experiment body executes in its own Env on a private clock.Sim
//     seeded from the job, so concurrent bodies can never perturb each
//     other's (or the server's) timeline — the isolation that keeps the
//     exposition worker-count-invariant.
//   - Results are memoized through the shared cas store (exp.Registry.Run):
//     re-submitting a completed (name, seed) pair is a dedup hit, and a
//     daemon restarted over a warm store completes every submission without
//     executing a single body (the exp.hits counter proves it).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/runpack"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Job states reported by the status endpoint.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Config assembles a Server. Registry is required; everything else has a
// serviceable default.
type Config struct {
	// Registry is the experiment registry the daemon serves.
	Registry *exp.Registry
	// Clock is the server time source (nil = clock.System). Inject a
	// *clock.Sim to make the daemon deterministic.
	Clock clock.Clock
	// Store memoizes experiment results and backs artifact serving
	// (nil = fresh in-memory store).
	Store cas.Store
	// Seed is the default root Env seed for submissions that omit one.
	Seed int64
	// Workers is the execution pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue (default 64). A submission
	// arriving at a full queue is rejected with 429, never blocked on.
	QueueDepth int
	// PackKey signs the runpack sealed for every completed job (served by
	// GET /experiments/{id}/runpack). The zero value derives a deterministic
	// ed25519 key from Seed — fine for simulation and tests, where the point
	// is offline verifiability, not secrecy; deployments that need
	// authenticity supply their own key material.
	PackKey runpack.Key
	// Cost, when non-nil, switches the daemon into load-test mode: every
	// request passes the deterministic admission model (which may answer
	// 429) and contributes its modeled latency to LatencySummary.
	Cost *CostModel
}

// SubmitRequest is the POST /experiments body: a registered experiment name
// plus an optional root seed (defaults to the server seed).
type SubmitRequest struct {
	Name string `json:"name"`
	Seed *int64 `json:"seed,omitempty"`
}

// StatusResponse is the JSON answer of the submit and status endpoints.
type StatusResponse struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	State      string `json:"state"`
	// Cached reports that the result was served from the store without
	// executing the body (exp.Provenance.Cached).
	Cached      bool               `json:"cached,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Artifacts   []string           `json:"artifacts,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Error       string             `json:"error,omitempty"`
	// SubmittedS / DoneS are seconds since clock.Epoch on the server clock.
	SubmittedS float64 `json:"submitted_s"`
	DoneS      float64 `json:"done_s,omitempty"`
}

// job is one submission's lifecycle record.
type job struct {
	id         string
	name       string
	seed       int64
	state      string
	submittedS float64
	// status caches the terminal StatusResponse bytes: once done or failed
	// the answer never changes, so polls stop paying for marshalling.
	status []byte
}

// Server is the smsd daemon core: an http.Handler over the experiment
// registry with a bounded admission queue and a fixed worker pool.
type Server struct {
	cfg     Config
	clk     clock.Clock
	met     *telemetry.Registry
	store   cas.Store
	packKey runpack.Key
	mux     *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	backlog int
	closed  bool
	lats    []float64 // modeled latencies, recorded only in load-test mode

	queue   chan *job
	workers sync.WaitGroup // worker goroutines
	pending sync.WaitGroup // jobs enqueued but not yet finished
}

// NewServer assembles the daemon and starts its worker pool.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: Config.Registry is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	clk := clock.Or(cfg.Clock)
	met := telemetry.NewWithClock(clk)
	store := cfg.Store
	if store == nil {
		store = cas.NewMemStore()
	}
	packKey := cfg.PackKey
	if packKey.Zero() {
		packKey = runpack.NewEd25519Key([]byte(fmt.Sprintf("smsd/pack-key/v1|%d", cfg.Seed)))
	}
	s := &Server{
		cfg:     cfg,
		clk:     clk,
		met:     met,
		store:   store,
		packKey: packKey,
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueDepth),
	}
	s.mux = s.routes()
	// Declare the latency series up front so an idle daemon still exposes
	// them (zero-count) instead of having metrics appear mid-flight.
	for _, ep := range endpoints {
		met.DeclareSeries("serve.latency." + ep)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.met }

// PackPublicKey returns the hex ed25519 public key runpack bundles are
// signed under ("" when the configured key is HMAC). A client holding only
// this string can verify a served bundle fully offline.
func (s *Server) PackPublicKey() string { return s.packKey.Public() }

// Wait blocks until every enqueued job has reached a terminal state. With a
// simulated clock this is the drain barrier the load generator uses between
// its submission phase and the steady-state mix.
func (s *Server) Wait() { s.pending.Wait() }

// Close stops accepting submissions, drains the queue, and waits for the
// worker pool to exit. Reads (status, artifacts, metrics) keep working.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.workers.Wait()
}

// JobID derives the deterministic submission ID for (experiment, seed):
// the first 8 bytes of SHA-256 over a versioned, length-safe encoding. The
// same pair always maps to the same ID, which is what makes re-submission
// an idempotent dedup hit instead of a duplicate execution.
func JobID(name string, seed int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("smsd/v1|%d:%s|%d", len(name), name, seed)))
	return hex.EncodeToString(sum[:8])
}

// artifactLink is the link-table key an artifact is published under.
func artifactLink(jobID, artifact string) cas.Key {
	return cas.KeyOf([]byte(fmt.Sprintf("serve/artifact|%s|%d:%s", jobID, len(artifact), artifact)))
}

// runpackLink is the link-table key a job's sealed runpack bundle is
// published under.
func runpackLink(jobID string) cas.Key {
	return cas.KeyOf([]byte(fmt.Sprintf("serve/runpack|%s", jobID)))
}

// submit runs the admission path: dedup on JobID, then a non-blocking
// enqueue onto the bounded queue. Returns the job, the HTTP status to
// answer with, and false when the server is closed.
func (s *Server) submit(name string, seed int64) (*job, int) {
	id := JobID(name, seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, http.StatusServiceUnavailable
	}
	if j, ok := s.jobs[id]; ok {
		// Idempotent re-submission: same (name, seed) is the same work.
		return j, http.StatusOK
	}
	j := &job{
		id:         id,
		name:       name,
		seed:       seed,
		state:      StateQueued,
		submittedS: clock.Seconds(s.clk.Now()),
	}
	select {
	case s.queue <- j:
	default:
		s.met.Inc("serve.rejected", 1)
		return nil, http.StatusTooManyRequests
	}
	s.jobs[id] = j
	s.pending.Add(1)
	s.backlog++
	s.met.SetGauge("serve.backlog", float64(s.backlog))
	s.met.Inc("serve.accepted", 1)
	s.met.Inc("serve.queued", 1)
	return j, http.StatusAccepted
}

// worker drains the admission queue until Close.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.backlog--
		s.met.SetGauge("serve.backlog", float64(s.backlog))
		j.state = StateRunning
		s.mu.Unlock()
		s.runJob(j)
		s.pending.Done()
	}
}

// runJob executes one submission through the registry and publishes its
// artifacts. The body runs in its own Env on a private clock.Sim seeded
// from the job: concurrent bodies share metrics and the store but never a
// timeline, so no interleaving can leak into any body's output.
func (s *Server) runJob(j *job) {
	env := &exp.Env{
		Clock:   clock.NewSim(j.seed),
		Seed:    j.seed,
		Metrics: s.met,
		Store:   s.store,
	}
	res, err := s.cfg.Registry.Run(context.Background(), env, j.name)
	st := StatusResponse{
		ID:         j.id,
		Experiment: j.name,
		Seed:       j.seed,
		SubmittedS: j.submittedS,
		DoneS:      clock.Seconds(s.clk.Now()),
	}
	if err == nil {
		err = s.publishArtifacts(j.id, res)
	}
	if err == nil {
		err = s.publishRunpack(j.id, res, env)
	}
	if err != nil {
		st.State = StateFailed
		st.Error = err.Error()
		s.met.Inc("serve.failed", 1)
	} else {
		st.State = StateDone
		st.Cached = res.Provenance.Cached
		st.Fingerprint = res.Provenance.Fingerprint
		st.Metrics = res.Metrics
		st.Artifacts = make([]string, 0, len(res.Artifacts))
		for name := range res.Artifacts {
			st.Artifacts = append(st.Artifacts, name)
		}
		sort.Strings(st.Artifacts)
		s.met.Inc("serve.completed", 1)
	}
	data, merr := json.Marshal(st)
	if merr != nil {
		// Result metrics are plain float64 maps; this cannot happen short of
		// a NaN-free contract violation. Surface it as a failed job.
		st = StatusResponse{ID: j.id, Experiment: j.name, Seed: j.seed, State: StateFailed,
			Error: merr.Error(), SubmittedS: j.submittedS}
		data, _ = json.Marshal(st)
	}
	s.mu.Lock()
	j.state = st.State
	j.status = data
	s.mu.Unlock()
}

// publishArtifacts stores each result artifact content-addressed and links
// it under the job's artifact namespace, so GET .../artifacts/{name} is a
// pure hash lookup — warm fetches never touch an experiment body.
func (s *Server) publishArtifacts(jobID string, res *exp.Result) error {
	names := make([]string, 0, len(res.Artifacts))
	for name := range res.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		key, err := s.store.Put([]byte(res.Artifacts[name]))
		if err != nil {
			return fmt.Errorf("serve: storing artifact %q: %w", name, err)
		}
		if err := s.store.Link(artifactLink(jobID, name), key); err != nil {
			return fmt.Errorf("serve: linking artifact %q: %w", name, err)
		}
	}
	return nil
}

// publishRunpack seals the completed job into a signed runpack bundle and
// publishes it content-addressed under the job's runpack link. Sealing is a
// pure function of the Result, so GET .../runpack is — like artifacts — a
// hash lookup that never re-executes a body.
func (s *Server) publishRunpack(jobID string, res *exp.Result, env *exp.Env) error {
	pack, err := s.cfg.Registry.Seal(res, env, s.packKey)
	if err != nil {
		return fmt.Errorf("serve: sealing runpack: %w", err)
	}
	data, err := pack.EncodeBundle()
	if err != nil {
		return fmt.Errorf("serve: encoding runpack bundle: %w", err)
	}
	key, err := s.store.Put(data)
	if err != nil {
		return fmt.Errorf("serve: storing runpack bundle: %w", err)
	}
	if err := s.store.Link(runpackLink(jobID), key); err != nil {
		return fmt.Errorf("serve: linking runpack bundle: %w", err)
	}
	return nil
}

// statusBytes renders a job's current status. Terminal jobs answer from the
// cached bytes; transient states marshal a fresh (small) response.
func (s *Server) statusBytes(j *job) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status != nil {
		return j.status
	}
	data, _ := json.Marshal(StatusResponse{
		ID: j.id, Experiment: j.name, Seed: j.seed, State: j.state, SubmittedS: j.submittedS,
	})
	return data
}

// lookupJob returns the job for an ID.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobState reads a job's state under the lock.
func (s *Server) jobState(j *job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

// recordLatency accumulates a modeled request latency for LatencySummary
// (load-test mode only; the slice is unbounded by design — one float64 per
// request, read once at the end of the run).
func (s *Server) recordLatency(latS float64) {
	s.mu.Lock()
	s.lats = append(s.lats, latS)
	s.mu.Unlock()
}

// LatencyStats summarizes the modeled request latencies of a load-test run.
type LatencyStats struct {
	N             int
	P50, P95, P99 float64
	Mean, Max     float64
}

// LatencySummary computes the full-distribution latency percentiles over
// every admitted request of a load-test run (zero value when Cost is unset
// or nothing was served).
func (s *Server) LatencySummary() LatencyStats {
	s.mu.Lock()
	lats := append([]float64(nil), s.lats...)
	s.mu.Unlock()
	if len(lats) == 0 {
		return LatencyStats{}
	}
	p50, _ := stats.Percentile(lats, 50)
	p95, _ := stats.Percentile(lats, 95)
	p99, _ := stats.Percentile(lats, 99)
	sum, err := stats.Summarize(lats)
	if err != nil {
		return LatencyStats{}
	}
	return LatencyStats{N: len(lats), P50: p50, P95: p95, P99: p99, Mean: sum.Mean, Max: sum.Max}
}
