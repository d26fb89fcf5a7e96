package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/runpack"
)

func sealTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.SetName("seal-test")
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "packed", Params: map[string]any{"n": 4}},
		Run: func(ctx context.Context, env *Env, spec Spec) (*Result, error) {
			rng := env.Rng(spec.Name)
			return &Result{
				Artifacts: map[string]string{
					"table": "a b\n1 2\n",
					"trace": strings.Repeat("tick\n", 20),
				},
				Metrics: map[string]float64{"draw": rng.Float64()},
			}, nil
		},
	})
	return r
}

func TestRunPackedSealsVerifiablePack(t *testing.T) {
	r := sealTestRegistry(t)
	key := runpack.DevKey()
	env := &Env{Seed: 9, Clock: clock.NewSim(9)}
	res, pack, err := r.RunPacked(context.Background(), env, "packed", key)
	if err != nil {
		t.Fatal(err)
	}
	if err := pack.Verify(runpack.VerifyOpts{Key: &key}); err != nil {
		t.Fatalf("sealed pack fails verify: %v", err)
	}
	m := pack.Manifest
	if m.Experiment != "packed" || m.Fingerprint != res.Provenance.Fingerprint {
		t.Fatalf("manifest identity wrong: %+v", m)
	}
	if m.RootSeed != 9 || m.Seed != res.Provenance.Seed {
		t.Fatalf("manifest seeds wrong: root=%d derived=%d", m.RootSeed, m.Seed)
	}
	if m.Provenance.Registry != "seal-test" || m.Provenance.Engine != EngineVersion {
		t.Fatalf("manifest provenance wrong: %+v", m.Provenance)
	}
	if m.Provenance.Store != "none" || m.Provenance.Cached {
		t.Fatalf("cold storeless run provenance wrong: %+v", m.Provenance)
	}
	if len(m.Artifacts) != 2 || m.Artifacts[0].Name != "table" || m.Artifacts[1].Name != "trace" {
		t.Fatalf("artifacts not sealed in sorted order: %+v", m.Artifacts)
	}
	if got := pack.Blobs["table"]; string(got) != res.Artifacts["table"] {
		t.Fatal("blob bytes differ from result artifact")
	}
}

// A warm (cached) re-run seals to the same material content — only the
// provenance records the cache path — so a regress gate comparing a cold
// golden against a warm candidate sees provenance-only drift.
func TestSealColdWarmMaterialIdentity(t *testing.T) {
	r := sealTestRegistry(t)
	key := runpack.DevKey()
	store := cas.NewMemStore()
	envCold := &Env{Seed: 3, Clock: clock.NewSim(3), Store: store}
	_, cold, err := r.RunPacked(context.Background(), envCold, "packed", key)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Manifest.Provenance.Store != "mem" {
		t.Fatalf("store kind = %q, want mem", cold.Manifest.Provenance.Store)
	}
	envWarm := &Env{Seed: 3, Clock: clock.NewSim(3), Store: store}
	_, warm, err := r.RunPacked(context.Background(), envWarm, "packed", key)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Manifest.Provenance.Cached {
		t.Fatal("warm run not marked cached in provenance")
	}
	d := runpack.Diff(cold, warm)
	if d.Material {
		t.Fatalf("cold vs warm drifted materially:\n%s", d.Text())
	}
	if !d.Provenance {
		t.Fatal("cold vs warm should differ in provenance.cached")
	}

	// Same seed, no store: byte-identical pack (same ID, same signature).
	envAgain := &Env{Seed: 9, Clock: clock.NewSim(9)}
	envAgain2 := &Env{Seed: 9, Clock: clock.NewSim(9)}
	_, a, err := r.RunPacked(context.Background(), envAgain, "packed", key)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := r.RunPacked(context.Background(), envAgain2, "packed", key)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || string(a.Raw) != string(b.Raw) {
		t.Fatal("identical runs sealed to different packs")
	}
}

func TestSealRejectsForeignResult(t *testing.T) {
	r := sealTestRegistry(t)
	res := &Result{Provenance: Provenance{Experiment: "never-registered"}}
	if _, err := r.Seal(res, &Env{}, runpack.DevKey()); err == nil {
		t.Fatal("sealed a result from an unregistered experiment")
	}
}

func TestValidateAcceptsRoundTrippableSpecs(t *testing.T) {
	r := sealTestRegistry(t)
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "plain", Params: map[string]any{
			"f": 0.25, "s": "x", "list": []string{"a", "b"}, "flag": true,
		}},
		Run: func(context.Context, *Env, Spec) (*Result, error) { return &Result{}, nil },
	})
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate() on clean registry: %v", err)
	}
}

// An int64 param beyond float64's exact range fingerprints fine at
// registration but changes identity across a JSON round-trip — exactly the
// class of spec a runpack manifest could not faithfully replay. Validate
// must catch it.
func TestValidateCatchesNonRoundTrippableParams(t *testing.T) {
	r := NewRegistry()
	mustRegister(t, r, Experiment{
		Spec: Spec{Name: "precise", Params: map[string]any{"big": int64(1)<<60 + 1}},
		Run:  func(context.Context, *Env, Spec) (*Result, error) { return &Result{}, nil },
	})
	err := r.Validate()
	if err == nil {
		t.Fatal("Validate() accepted params that change identity across a JSON round-trip")
	}
	if !strings.Contains(err.Error(), "precise") {
		t.Fatalf("error does not name the experiment: %v", err)
	}
}
