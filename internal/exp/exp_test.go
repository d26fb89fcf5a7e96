package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestSpecFingerprintStable(t *testing.T) {
	a := Spec{Name: "x", Params: map[string]any{"n": 10, "p": 0.5}}
	b := Spec{Name: "x", Params: map[string]any{"p": 0.5, "n": 10}}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Error("param insertion order leaked into the fingerprint")
	}
	c := Spec{Name: "x", Params: map[string]any{"n": 11, "p": 0.5}}
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Error("param change did not change the fingerprint")
	}
	d := Spec{Name: "y", Params: a.Params}
	fd, err := d.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fd == fa {
		t.Error("name change did not change the fingerprint")
	}
}

func TestSpecFingerprintRejectsUnserializable(t *testing.T) {
	s := Spec{Name: "bad", Params: map[string]any{"fn": func() {}}}
	if _, err := s.Fingerprint(); err == nil {
		t.Error("unserializable params fingerprinted")
	}
}

// The Env-isolation invariant: two experiments sharing one Env derive
// independent rng streams — neither the other's draws nor the order the
// experiments run in can change what either observes.
func TestEnvIsolation(t *testing.T) {
	env := &Env{Seed: 42}
	drawsOf := func(name string, before int) []float64 {
		// Perturb: consume `before` draws from the *other* stream first.
		other := env.Rng("other-experiment")
		for i := 0; i < before; i++ {
			other.Float64()
		}
		r := env.Rng(name)
		out := make([]float64, 8)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	a := drawsOf("exp-a", 0)
	b := drawsOf("exp-a", 17) // other experiment drew first — must not matter
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream exp-a perturbed by another experiment's draws at %d", i)
		}
	}
	o := drawsOf("exp-b", 0)
	same := true
	for i := range a {
		if a[i] != o[i] {
			same = false
		}
	}
	if same {
		t.Error("distinct experiment names produced identical streams")
	}
	if env.SeedFor("exp-a") == env.SeedFor("exp-b") {
		t.Error("distinct names derived the same seed")
	}
	if (&Env{Seed: 1}).SeedFor("exp-a") == (&Env{Seed: 2}).SeedFor("exp-a") {
		t.Error("root seed does not reach derived seeds")
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	ok := Experiment{Spec: Spec{Name: "a"}, Run: func(context.Context, *Env, Spec) (*Result, error) { return &Result{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate accepted")
	}
	if err := r.Register(Experiment{Spec: Spec{Name: ""}, Run: ok.Run}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(Experiment{Spec: Spec{Name: "b"}}); err == nil {
		t.Error("nil body accepted")
	}
	if err := r.Register(Experiment{Spec: Spec{Name: "c", Params: map[string]any{"f": func() {}}}, Run: ok.Run}); err == nil {
		t.Error("unfingerprintable spec accepted")
	}
	if _, err := r.Run(context.Background(), &Env{}, "nope"); err == nil {
		t.Error("unknown experiment ran")
	}
}

// Whole-experiment memoization: a warm registry sweep executes zero bodies
// and returns byte-identical artifacts, with provenance marking the cache
// path and exp.hits/exp.misses accounting for every experiment.
func TestRegistryWarmSweepExecutesZeroBodies(t *testing.T) {
	r := NewRegistry()
	executed := 0
	for _, name := range []string{"alpha", "beta", "gamma"} {
		name := name
		mustRegister(t, r, Experiment{
			Spec: Spec{Name: name, Params: map[string]any{"k": name}},
			Run: func(ctx context.Context, env *Env, spec Spec) (*Result, error) {
				executed++
				v := env.Rng(spec.Name).Float64()
				return &Result{
					Artifacts: map[string]string{"out": name + " artifact"},
					Metrics:   map[string]float64{"draw": v},
				}, nil
			},
		})
	}
	env := &Env{
		Seed:    7,
		Clock:   clock.NewSim(1),
		Metrics: telemetry.NewWithClock(clock.NewSim(1)),
		Store:   cas.NewMemStore(),
	}
	cold, err := r.RunAll(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 3 {
		t.Fatalf("cold sweep executed %d bodies, want 3", executed)
	}
	warm, err := r.RunAll(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 3 {
		t.Fatalf("warm sweep executed %d extra bodies", executed-3)
	}
	for i := range cold {
		if cold[i].Provenance.Cached {
			t.Errorf("cold result %d marked cached", i)
		}
		if !warm[i].Provenance.Cached {
			t.Errorf("warm result %d not marked cached", i)
		}
		if cold[i].Artifacts["out"] != warm[i].Artifacts["out"] {
			t.Errorf("artifact %d diverged across cold/warm", i)
		}
		if cold[i].Metrics["draw"] != warm[i].Metrics["draw"] {
			t.Errorf("metric %d diverged across cold/warm", i)
		}
		if cold[i].Provenance.Fingerprint != warm[i].Provenance.Fingerprint {
			t.Errorf("fingerprint %d diverged", i)
		}
	}
	if hits := env.Metrics.Counter("exp.hits"); hits != 3 {
		t.Errorf("exp.hits = %d, want 3", hits)
	}
	if misses := env.Metrics.Counter("exp.misses"); misses != 3 {
		t.Errorf("exp.misses = %d, want 3", misses)
	}
}

// A different root seed must miss the cache: the derived seed is part of
// the memo key, so cached results can never leak across seeds.
func TestRegistryMemoKeyCoversSeed(t *testing.T) {
	r := NewRegistry()
	executed := 0
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "seeded"},
		Run: func(ctx context.Context, env *Env, spec Spec) (*Result, error) {
			executed++
			return &Result{Artifacts: map[string]string{"v": "x"}}, nil
		},
	})
	store := cas.NewMemStore()
	if _, err := r.Run(context.Background(), &Env{Seed: 1, Store: store}, "seeded"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), &Env{Seed: 2, Store: store}, "seeded"); err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Fatalf("executed %d bodies across two seeds, want 2 (no cross-seed hits)", executed)
	}
	if _, err := r.Run(context.Background(), &Env{Seed: 1, Store: store}, "seeded"); err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Fatal("same-seed rerun executed the body instead of hitting the cache")
	}
}

// A memoized result whose blob was flipped on disk is a miss: the body runs
// once more and returns the original bytes, never the corrupt ones, and its
// Put replaces the bad file, so the third run is a hit.
func TestRegistryRunCorruptBlob(t *testing.T) {
	r := NewRegistry()
	executed := 0
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "stored"},
		Run: func(ctx context.Context, env *Env, spec Spec) (*Result, error) {
			executed++
			return &Result{Artifacts: map[string]string{"v": "bytes on disk"}}, nil
		},
	})
	dir := t.TempDir()
	store, err := cas.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), &Env{Seed: 1, Store: store}, "stored"); err != nil {
		t.Fatal(err)
	}
	keys, err := store.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("stored objects %v, err %v; want the one result", keys, err)
	}
	path := filepath.Join(dir, "objects", string(keys[0][:2]), string(keys[0][2:]))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(orig)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for run, want := range []struct {
		executed int
		cached   bool
	}{{2, false}, {2, true}} {
		res, err := r.Run(context.Background(), &Env{Seed: 1, Store: store}, "stored")
		if err != nil || res.Artifacts["v"] != "bytes on disk" {
			t.Fatalf("run %d over a corrupt blob: res %v, err %v; want the original result", run+2, res, err)
		}
		if executed != want.executed || res.Provenance.Cached != want.cached {
			t.Fatalf("run %d: %d bodies executed, cached %v; want %d and %v", run+2, executed, res.Provenance.Cached, want.executed, want.cached)
		}
	}
	if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, orig) {
		t.Fatalf("object after the re-run: %q, %v; want the original bytes", healed, err)
	}
}

func TestRegistryRunError(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "fails"},
		Run:  func(context.Context, *Env, Spec) (*Result, error) { return nil, boom },
	})
	_, err := r.Run(context.Background(), &Env{}, "fails")
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "fails") {
		t.Errorf("error does not name the experiment: %v", err)
	}
}

// Spans: Registry.Run emits one exp.run span per invocation on the Env
// metrics, stamped by the Env clock.
func TestRunEmitsSpan(t *testing.T) {
	r := NewRegistry()
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "spanned"},
		Run:  func(context.Context, *Env, Spec) (*Result, error) { return &Result{}, nil },
	})
	sim := clock.NewSim(1)
	env := &Env{Clock: sim, Metrics: telemetry.NewWithClock(sim)}
	if _, err := r.Run(context.Background(), env, "spanned"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sp := range env.Metrics.Spans() {
		if sp.Kind == "exp.run" && sp.Name == "spanned" {
			found = true
		}
	}
	if !found {
		t.Error("no exp.run span recorded")
	}
}

func TestNamesSortedAndGet(t *testing.T) {
	r := NewRegistry()
	run := func(context.Context, *Env, Spec) (*Result, error) { return &Result{}, nil }
	for _, n := range []string{"zeta", "alpha", "mid"} {
		mustRegister(t, r, Experiment{Spec: Spec{Name: n}, Run: run})
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, ok := r.Get("mid"); !ok {
		t.Error("Get(mid) missed")
	}
	if got := r.Len(); got != 3 {
		t.Errorf("Len() = %d", got)
	}
	exps := r.Experiments()
	if len(exps) != 3 || exps[0].Spec.Name != "alpha" {
		t.Errorf("Experiments() order wrong: %v", exps)
	}
}

// SeedFor's outputs key every experiment stream and memo entry: pin a few.
func TestSeedForPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		name string
		want int64
	}{
		{0, "", 3280913990850182452},
		{1, "report.full", 2899475418416482908},
		{42, "corpus/classify", -4234439302062352480},
	} {
		env := &Env{Seed: c.seed}
		if got := env.SeedFor(c.name); got != c.want {
			t.Errorf("SeedFor(%d, %q) = %d, want %d", c.seed, c.name, got, c.want)
		}
	}
}

// mustRegister registers e on r, failing the test on error.
func mustRegister(t testing.TB, r *Registry, e Experiment) {
	t.Helper()
	if err := r.Register(e); err != nil {
		t.Fatal(err)
	}
}

// Run keys the memo and provenance with the fingerprint Register computed:
// the value equals a fresh Spec.Fingerprint, cold and warm.
func TestRunUsesRegisteredFingerprint(t *testing.T) {
	r := NewRegistry()
	spec := Spec{Name: "fp", Params: map[string]any{"n": 3, "mode": "fast"}}
	if err := r.Register(Experiment{Spec: spec, Run: func(context.Context, *Env, Spec) (*Result, error) {
		return &Result{Metrics: map[string]float64{"x": 1}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	want, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Seed: 1, Store: cas.NewMemStore()}
	for _, wantCached := range []bool{false, true} {
		res, err := r.Run(context.Background(), env, "fp")
		if err != nil {
			t.Fatal(err)
		}
		if res.Provenance.Fingerprint != want || res.Provenance.Cached != wantCached {
			t.Fatalf("provenance %+v, want fingerprint %s cached %v", res.Provenance, want, wantCached)
		}
	}
}
