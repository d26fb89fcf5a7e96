package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/runpack"
)

// synth returns a small deterministic experiment: rows of seeded random
// values as a CSV artifact plus a summary, all derived from Env.Rng.
func synth(name string, rows int, executed *atomic.Int64) exp.Experiment {
	return exp.Experiment{
		Spec: exp.Spec{Name: name, Params: map[string]any{"rows": rows}},
		Desc: "synthetic table",
		Run: func(_ context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			if executed != nil {
				executed.Add(1)
			}
			r := env.Rng(spec.Name)
			var sb strings.Builder
			sum := 0.0
			for i := 0; i < rows; i++ {
				v := r.Float64()
				sum += v
				fmt.Fprintf(&sb, "%d,%.9f\n", i, v)
			}
			return &exp.Result{
				Artifacts: map[string]string{
					"table.csv":   sb.String(),
					"summary.txt": fmt.Sprintf("rows=%d sum=%.9f\n", rows, sum),
				},
				Metrics: map[string]float64{"rows": float64(rows), "sum": sum},
			}, nil
		},
	}
}

func synthRegistry(t testing.TB, executed *atomic.Int64, names ...string) *exp.Registry {
	t.Helper()
	reg := exp.NewRegistry()
	for i, n := range names {
		if err := reg.Register(synth(n, 8+4*i, executed)); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.NewSim(1)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// do drives one request through the handler chain and returns the recorder.
func do(srv *Server, method, path, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func decodeStatus(t *testing.T, w *httptest.ResponseRecorder) StatusResponse {
	t.Helper()
	var st StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status %q: %v", w.Body.String(), err)
	}
	return st
}

func TestSubmitPollFetch(t *testing.T) {
	var executed atomic.Int64
	srv := newTestServer(t, Config{Registry: synthRegistry(t, &executed, "synth/a"), Seed: 7})

	w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	st := decodeStatus(t, w)
	if st.ID != JobID("synth/a", 7) || st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit status = %+v", st)
	}
	srv.Wait()

	w = do(srv, http.MethodGet, "/experiments/"+st.ID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("poll = %d", w.Code)
	}
	final := decodeStatus(t, w)
	if final.State != StateDone || final.Cached || final.Fingerprint == "" {
		t.Fatalf("final status = %+v", final)
	}
	if len(final.Artifacts) != 2 || final.Artifacts[0] != "summary.txt" || final.Artifacts[1] != "table.csv" {
		t.Fatalf("artifacts = %v (want sorted names)", final.Artifacts)
	}
	if final.Metrics["rows"] != 8 {
		t.Fatalf("metrics = %v", final.Metrics)
	}

	w = do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/table.csv", "")
	if w.Code != http.StatusOK {
		t.Fatalf("artifact fetch = %d: %s", w.Code, w.Body.String())
	}
	if !strings.HasPrefix(w.Body.String(), "0,") || strings.Count(w.Body.String(), "\n") != 8 {
		t.Fatalf("artifact body = %q", w.Body.String())
	}
	again := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/table.csv", "")
	if again.Body.String() != w.Body.String() {
		t.Fatal("artifact fetch not stable")
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("body executed %d times", got)
	}
	if srv.Metrics().Counter("serve.completed") != 1 || srv.Metrics().Counter("serve.accepted") != 1 {
		t.Fatalf("counters:\n%s", srv.Metrics().PromText())
	}
}

func TestSubmitMalformedJSON(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	for _, body := range []string{`{"name": nope`, `not json at all`, `{"name":"synth/a","bogus":1}`} {
		if w := do(srv, http.MethodPost, "/experiments", body); w.Code != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, w.Code)
		}
	}
	if srv.Metrics().Counter("serve.code.400") != 3 {
		t.Errorf("400 counter = %d", srv.Metrics().Counter("serve.code.400"))
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	w := do(srv, http.MethodPost, "/experiments", `{"name":"no/such/experiment"}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown name = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "unknown experiment") {
		t.Fatalf("body = %s", w.Body.String())
	}
}

func TestPollNonexistentID(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	if w := do(srv, http.MethodGet, "/experiments/deadbeefdeadbeef", ""); w.Code != http.StatusNotFound {
		t.Fatalf("poll = %d", w.Code)
	}
	if w := do(srv, http.MethodGet, "/experiments/deadbeefdeadbeef/artifacts/x", ""); w.Code != http.StatusNotFound {
		t.Fatalf("artifact on unknown id = %d", w.Code)
	}
}

// blockingExperiment parks its body until release is closed, signalling
// entry on started — the deterministic way to observe queued/running states.
func blockingExperiment(name string, started chan<- struct{}, release <-chan struct{}) exp.Experiment {
	return exp.Experiment{
		Spec: exp.Spec{Name: name},
		Desc: "blocks until released",
		Run: func(context.Context, *exp.Env, exp.Spec) (*exp.Result, error) {
			started <- struct{}{}
			<-release
			return &exp.Result{Artifacts: map[string]string{"out.txt": "released\n"}}, nil
		},
	}
}

func TestArtifactBeforeCompletion(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := exp.NewRegistry()
	if err := reg.Register(blockingExperiment("block", started, release)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Registry: reg, Workers: 1})
	st := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"block"}`))
	<-started // the worker is inside the body now

	if w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/out.txt", ""); w.Code != http.StatusConflict {
		t.Fatalf("artifact before completion = %d, want 409", w.Code)
	}
	if got := decodeStatus(t, do(srv, http.MethodGet, "/experiments/"+st.ID, "")); got.State != StateRunning {
		t.Fatalf("state = %s, want running", got.State)
	}

	close(release)
	srv.Wait()
	if w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/out.txt", ""); w.Code != http.StatusOK || w.Body.String() != "released\n" {
		t.Fatalf("artifact after completion = %d %q", w.Code, w.Body.String())
	}
	// Unknown artifact name on a completed job is 404, not 409.
	if w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown artifact = %d", w.Code)
	}
}

func TestQueueFullRejects(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := exp.NewRegistry()
	if err := reg.Register(blockingExperiment("block", started, release)); err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	for i, n := range []string{"synth/b1", "synth/b2"} {
		if err := reg.Register(synth(n, 4+i, &executed)); err != nil {
			t.Fatal(err)
		}
	}
	srv := newTestServer(t, Config{Registry: reg, Workers: 1, QueueDepth: 1})

	if w := do(srv, http.MethodPost, "/experiments", `{"name":"block"}`); w.Code != http.StatusAccepted {
		t.Fatalf("block submit = %d", w.Code)
	}
	<-started // worker busy, queue empty
	if w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/b1"}`); w.Code != http.StatusAccepted {
		t.Fatalf("fill submit = %d", w.Code)
	}
	w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/b2"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", w.Code)
	}
	if srv.Metrics().Counter("serve.rejected") != 1 || srv.Metrics().Counter("serve.code.429") != 1 {
		t.Fatalf("reject counters:\n%s", srv.Metrics().PromText())
	}
	// The rejected submission left no job behind; polling it is 404.
	if w := do(srv, http.MethodGet, "/experiments/"+JobID("synth/b2", 0), ""); w.Code != http.StatusNotFound {
		t.Fatalf("rejected job visible: %d", w.Code)
	}

	close(release)
	srv.Wait()
	if got := decodeStatus(t, do(srv, http.MethodGet, "/experiments/"+JobID("synth/b1", 0), "")); got.State != StateDone {
		t.Fatalf("queued job ended %s", got.State)
	}
	// Re-submitting the rejected name after drain is admitted normally.
	if w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/b2"}`); w.Code != http.StatusAccepted {
		t.Fatalf("retry submit = %d", w.Code)
	}
	srv.Wait()
}

func TestSubmitDedup(t *testing.T) {
	var executed atomic.Int64
	srv := newTestServer(t, Config{Registry: synthRegistry(t, &executed, "synth/a")})
	first := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`))
	srv.Wait()
	w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("re-submit = %d, want 200", w.Code)
	}
	if got := decodeStatus(t, w); got.ID != first.ID || got.State != StateDone {
		t.Fatalf("re-submit status = %+v", got)
	}
	if executed.Load() != 1 {
		t.Fatalf("dedup executed the body %d times", executed.Load())
	}
	// A different seed is different work: new job, new execution.
	w = do(srv, http.MethodPost, "/experiments", `{"name":"synth/a","seed":99}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("new-seed submit = %d", w.Code)
	}
	if got := decodeStatus(t, w); got.ID == first.ID {
		t.Fatal("distinct seeds share a job ID")
	}
	srv.Wait()
	if executed.Load() != 2 {
		t.Fatalf("new seed executed %d bodies total", executed.Load())
	}
}

func TestListEndpoint(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a", "synth/b")})
	do(srv, http.MethodPost, "/experiments", `{"name":"synth/b"}`)
	srv.Wait()
	w := do(srv, http.MethodGet, "/experiments", "")
	if w.Code != http.StatusOK {
		t.Fatalf("list = %d", w.Code)
	}
	var resp struct {
		Experiments []string `json:"experiments"`
		Jobs        []struct {
			ID, Experiment, State string
		} `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experiments) != 2 || resp.Experiments[0] != "synth/a" {
		t.Fatalf("experiments = %v", resp.Experiments)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].Experiment != "synth/b" || resp.Jobs[0].State != StateDone {
		t.Fatalf("jobs = %+v", resp.Jobs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`)
	srv.Wait()
	w := do(srv, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	for _, want := range []string{
		"serve_req_submit 1",
		"serve_accepted 1",
		"serve_backlog 0",
		"exp_misses 1",
		"# TYPE serve_latency_submit summary",
		"# TYPE serve_latency_status summary", // declared even though never hit
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, w.Body.String())
		}
	}
}

// A daemon restarted over a warm store completes every submission without
// executing a single experiment body: results come back as exp.hits,
// artifact bytes are identical to the cold run's, and so is every material
// field of the runpacks (the cache-state provenance differs by design). The
// disk case opens the store afresh from its directory for the warm server,
// which therefore starts from the replayed link log.
func TestWarmRestartExecutesZeroBodies(t *testing.T) {
	mem, dir := cas.NewMemStore(), t.TempDir()
	for _, tc := range []struct {
		name string
		open func() (cas.Store, error) // once per server
	}{
		{"mem", func() (cas.Store, error) { return mem, nil }},
		{"disk", func() (cas.Store, error) { return cas.NewDiskStore(dir) }},
	} {
		t.Run(tc.name, func(t *testing.T) { warmRestart(t, tc.open) })
	}
}

func warmRestart(t *testing.T, open func() (cas.Store, error)) {
	var executed atomic.Int64
	names := []string{"synth/a", "synth/b", "synth/c"}
	fetch := func(srv *Server, id, what string) string {
		t.Helper()
		w := do(srv, http.MethodGet, "/experiments/"+id+"/"+what, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s of %s = %d", what, id, w.Code)
		}
		return w.Body.String()
	}
	server := func() *Server {
		store, err := open()
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, Config{Registry: synthRegistry(t, &executed, names...), Store: store, Seed: 3})
	}

	cold := server()
	artifacts, packs := map[string]string{}, map[string]string{}
	for _, n := range names {
		st := decodeStatus(t, do(cold, http.MethodPost, "/experiments", fmt.Sprintf(`{"name":%q}`, n)))
		cold.Wait()
		artifacts[n] = fetch(cold, st.ID, "artifacts/table.csv")
		packs[n] = fetch(cold, st.ID, "runpack")
	}
	if executed.Load() != 3 {
		t.Fatalf("cold run executed %d bodies", executed.Load())
	}
	cold.Close()

	warm := server()
	for _, n := range names {
		w := do(warm, http.MethodPost, "/experiments", fmt.Sprintf(`{"name":%q}`, n))
		if w.Code != http.StatusAccepted {
			t.Fatalf("warm submit %s = %d", n, w.Code)
		}
	}
	warm.Wait()
	if executed.Load() != 3 {
		t.Fatalf("warm restart executed %d extra bodies", executed.Load()-3)
	}
	met := warm.Metrics()
	if met.Counter("exp.hits") != 3 || met.Counter("exp.misses") != 0 {
		t.Fatalf("warm counters: hits=%d misses=%d", met.Counter("exp.hits"), met.Counter("exp.misses"))
	}
	for _, n := range names {
		st := decodeStatus(t, do(warm, http.MethodGet, "/experiments/"+JobID(n, 3), ""))
		if !st.Cached || st.State != StateDone {
			t.Fatalf("warm status %s = %+v", n, st)
		}
		if fetch(warm, st.ID, "artifacts/table.csv") != artifacts[n] {
			t.Fatalf("warm artifact %s differs from cold run", n)
		}
		coldPack, err := runpack.DecodeBundle([]byte(packs[n]))
		if err != nil {
			t.Fatal(err)
		}
		warmPack, err := runpack.DecodeBundle([]byte(fetch(warm, st.ID, "runpack")))
		if err != nil {
			t.Fatal(err)
		}
		if d := runpack.Diff(coldPack, warmPack); d.Material {
			t.Fatalf("warm runpack %s drifted from cold:\n%s", n, d.Text())
		}
	}
}

// A flipped byte in a stored artifact answers 410, as an evicted one does:
// none of its bytes are served, and no digest header names them.
func TestArtifactCorruptOnDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a"), Store: store})
	st := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`))
	srv.Wait()
	path := "/experiments/" + st.ID + "/artifacts/table.csv"
	w := do(srv, http.MethodGet, path, "")
	if w.Code != http.StatusOK {
		t.Fatalf("fetch before the flip = %d", w.Code)
	}
	body, k := w.Body.String(), cas.KeyOf(w.Body.Bytes())
	object := filepath.Join(dir, "objects", string(k[:2]), string(k[2:]))
	data, err := os.ReadFile(object)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(object, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w = do(srv, http.MethodGet, path, "")
	if w.Code != http.StatusGone || w.Header().Get("X-Content-Digest") != "" {
		t.Fatalf("corrupt artifact: %d %q digest=%q, want a 410", w.Code, w.Body.String(), w.Header().Get("X-Content-Digest"))
	}
	if strings.Contains(w.Body.String(), body[:len(body)/2]) {
		t.Fatal("410 body carries the artifact bytes")
	}
}

// evictingStore hides one blob from Get — simulating an evicted artifact
// behind an intact link.
type evictingStore struct {
	cas.Store
	gone cas.Key
}

func (e *evictingStore) Get(k cas.Key) ([]byte, bool, error) {
	if k == e.gone {
		return nil, false, nil
	}
	return e.Store.Get(k)
}

func TestArtifactEvicted(t *testing.T) {
	inner := cas.NewMemStore()
	ev := &evictingStore{Store: inner}
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a"), Store: ev})
	st := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`))
	srv.Wait()
	w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/table.csv", "")
	if w.Code != http.StatusOK {
		t.Fatalf("pre-eviction fetch = %d", w.Code)
	}
	ev.gone = cas.KeyOf(w.Body.Bytes())
	if w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/table.csv", ""); w.Code != http.StatusGone {
		t.Fatalf("evicted fetch = %d, want 410", w.Code)
	}
}

func TestClosedServerRejectsSubmissions(t *testing.T) {
	srv := newTestServer(t, Config{Registry: synthRegistry(t, nil, "synth/a")})
	st := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"synth/a"}`))
	srv.Wait()
	srv.Close()
	if w := do(srv, http.MethodPost, "/experiments", `{"name":"synth/a","seed":5}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close = %d, want 503", w.Code)
	}
	// Reads keep working after Close.
	if w := do(srv, http.MethodGet, "/experiments/"+st.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("status after close = %d", w.Code)
	}
	if w := do(srv, http.MethodGet, "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("metrics after close = %d", w.Code)
	}
}

func TestJobIDDerivation(t *testing.T) {
	a := JobID("synth/a", 1)
	if len(a) != 16 {
		t.Fatalf("id %q not 16 hex chars", a)
	}
	if a != JobID("synth/a", 1) {
		t.Fatal("JobID not stable")
	}
	if a == JobID("synth/a", 2) || a == JobID("synth/b", 1) {
		t.Fatal("JobID ignores name or seed")
	}
}

func TestFailedExperimentSurfaces(t *testing.T) {
	reg := exp.NewRegistry()
	if err := reg.Register(exp.Experiment{
		Spec: exp.Spec{Name: "fails"},
		Desc: "always fails",
		Run: func(context.Context, *exp.Env, exp.Spec) (*exp.Result, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Registry: reg})
	st := decodeStatus(t, do(srv, http.MethodPost, "/experiments", `{"name":"fails"}`))
	srv.Wait()
	got := decodeStatus(t, do(srv, http.MethodGet, "/experiments/"+st.ID, ""))
	if got.State != StateFailed || !strings.Contains(got.Error, "synthetic failure") {
		t.Fatalf("failed status = %+v", got)
	}
	if w := do(srv, http.MethodGet, "/experiments/"+st.ID+"/artifacts/x", ""); w.Code != http.StatusConflict {
		t.Fatalf("artifact of failed job = %d, want 409", w.Code)
	}
	if srv.Metrics().Counter("serve.failed") != 1 {
		t.Fatal("serve.failed not counted")
	}
}
