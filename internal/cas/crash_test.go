package cas_test

import (
	"bytes"
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
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/runpack"
	"repro/internal/serve"
)

// crashNames are the registered experiments the crash tests store. Together
// they store whole Results, corpus/classify's and a scengen family's
// MapShards shards, and report.full's sections.
var crashNames = []string{"corpus/classify", "report.full", "scengen/energy"}

// crashRegistry registers crashNames from the default registry, each body
// wrapped to count its runs in bodies.
func crashRegistry(t *testing.T, bodies *atomic.Int64) *exp.Registry {
	t.Helper()
	all, err := experiments.Default()
	if err != nil {
		t.Fatal(err)
	}
	reg := exp.NewRegistry()
	for _, n := range crashNames {
		e, ok := all.Get(n)
		if !ok {
			t.Fatalf("%s is not registered", n)
		}
		run := e.Run
		e.Run = func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			bodies.Add(1)
			return run(ctx, env, spec)
		}
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func openDisk(t *testing.T, dir string) *cas.DiskStore {
	t.Helper()
	st, err := cas.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fates are what a crash may do to one object, in damage's draw order.
var fates = []string{"kept", "deleted", "emptied", "truncated", "flipped"}

// damage applies a seeded crash to the DiskStore under dir. Each object is
// kept, deleted, truncated to zero bytes, truncated partway or has one bit
// flipped; links.log loses about a quarter of its lines and is then cut at a
// seeded offset. It returns how many objects met each of fates.
func damage(t *testing.T, dir string, seed int64) []int {
	t.Helper()
	r := rng.New(seed)
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil || len(objects) == 0 {
		t.Fatalf("objects %v, err %v", objects, err)
	}
	count := make([]int, len(fates))
	for _, path := range objects {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fate := r.Intn(len(fates))
		if len(data) == 0 {
			fate = 1 // nothing to truncate or flip
		}
		count[fate]++
		switch fates[fate] {
		case "deleted":
			err = os.Remove(path)
		case "emptied":
			err = os.Truncate(path, 0)
		case "truncated":
			err = os.Truncate(path, int64(r.Intn(len(data))))
		case "flipped":
			data[r.Intn(len(data))] ^= 1 << r.Intn(8)
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	logPath := filepath.Join(dir, "links.log")
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		if r.Intn(4) != 0 {
			kept = append(kept, line...)
		}
	}
	if err := os.WriteFile(logPath, kept[:r.Intn(len(kept)+1)], 0o644); err != nil {
		t.Fatal(err)
	}
	return count
}

// material is the JSON of results with the cache state cleared: what a run
// returns whatever its store held.
func material(t *testing.T, results []*exp.Result) []byte {
	t.Helper()
	out := make([]exp.Result, len(results))
	for i, r := range results {
		out[i] = *r
		out[i].Provenance.Cached = false
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The store fsyncs nothing, so a crash may lose or tear any object and any
// link record. Over seeded damage to a cold store, the reopened store's
// RunAll returns the storeless run's results at workers 1, 4 and 8, and
// once reopened again it executes zero bodies.
func TestCrashOutcomes(t *testing.T) {
	var bodies atomic.Int64
	reg := crashRegistry(t, &bodies)
	runAll := func(store cas.Store, workers int) []byte {
		t.Helper()
		env := &exp.Env{Clock: clock.NewSim(1), Seed: 1, Store: store, Par: []par.Option{par.Workers(workers)}}
		res, err := reg.RunAll(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		return material(t, res)
	}
	want := runAll(nil, 1)
	total := make([]int, len(fates))
	for seed := int64(1); seed <= 4; seed++ {
		for _, workers := range []int{1, 4, 8} {
			dir := t.TempDir()
			runAll(openDisk(t, dir), 1)
			for i, n := range damage(t, dir, seed*100+int64(workers)) {
				total[i] += n
			}
			bodies.Store(0)
			if got := runAll(openDisk(t, dir), workers); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, workers %d: the damaged store's run differs from the storeless run", seed, workers)
			}
			reran := bodies.Swap(0)
			if got := runAll(openDisk(t, dir), workers); !bytes.Equal(got, want) || bodies.Load() != 0 {
				t.Fatalf("seed %d, workers %d: reopened after healing, %d bodies ran (equal %v)",
					seed, workers, bodies.Load(), bytes.Equal(got, want))
			}
			t.Logf("seed %d, workers %d: %d of %d bodies re-ran", seed, workers, reran, len(crashNames))
		}
	}
	for i, n := range total {
		if n == 0 {
			t.Errorf("no object was %s: the schedule does not cover that fate", fates[i])
		}
	}
	t.Logf("object fates %v: %v", fates, total)
}

// call drives one request through srv's handler chain.
func call(srv *serve.Server, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// served submits every experiment of reg to a daemon over store, waits,
// and returns each job's artifacts by "<experiment>/<artifact>" and its
// runpack, verified against the daemon's public key.
func served(t *testing.T, reg *exp.Registry, store cas.Store) (map[string]string, map[string]*runpack.Pack) {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{Registry: reg, Store: store, Clock: clock.NewSim(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, n := range reg.Names() {
		if w := call(srv, http.MethodPost, "/experiments", fmt.Sprintf(`{"name":%q}`, n)); w.Code != http.StatusAccepted {
			t.Fatalf("submit %s = %d %s", n, w.Code, w.Body.String())
		}
	}
	srv.Wait()
	get := func(path string) []byte {
		t.Helper()
		w := call(srv, http.MethodGet, path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	artifacts, packs := map[string]string{}, map[string]*runpack.Pack{}
	for _, n := range reg.Names() {
		job := "/experiments/" + serve.JobID(n, 0)
		var st serve.StatusResponse
		if err := json.Unmarshal(get(job), &st); err != nil || st.State != serve.StateDone {
			t.Fatalf("%s: status %+v, err %v", n, st, err)
		}
		for _, a := range st.Artifacts {
			artifacts[n+"/"+a] = string(get(job + "/artifacts/" + a))
		}
		p, err := runpack.DecodeBundle(get(job + "/runpack"))
		if err == nil {
			err = p.Verify(runpack.VerifyOpts{PubKey: srv.PackPublicKey()})
		}
		if err != nil {
			t.Fatalf("%s runpack: %v", n, err)
		}
		packs[n] = p
	}
	return artifacts, packs
}

// A daemon restarted over a damaged DiskStore serves every re-submitted
// job's artifacts with a clean daemon's bytes, and a runpack that verifies
// and differs from the clean one in cache state alone.
func TestRestartOverDamagedStore(t *testing.T) {
	var bodies atomic.Int64
	reg := crashRegistry(t, &bodies)
	cleanArtifacts, cleanPacks := served(t, reg, cas.NewMemStore())
	for seed := int64(1); seed <= 2; seed++ {
		dir := t.TempDir()
		served(t, reg, openDisk(t, dir))
		damage(t, dir, seed)
		artifacts, packs := served(t, reg, openDisk(t, dir))
		if len(artifacts) != len(cleanArtifacts) {
			t.Fatalf("seed %d: %d artifacts served, want %d", seed, len(artifacts), len(cleanArtifacts))
		}
		for name, want := range cleanArtifacts {
			if artifacts[name] != want {
				t.Errorf("seed %d: artifact %s differs from the clean daemon's", seed, name)
			}
		}
		for name, want := range cleanPacks {
			if d := runpack.Diff(want, packs[name]); d.Material {
				t.Errorf("seed %d: runpack %s drifted:\n%s", seed, name, d.Text())
			}
		}
	}
}
