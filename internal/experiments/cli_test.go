package experiments

import (
	"context"
	"testing"

	"repro/internal/cas"
	"repro/internal/exp"
	"repro/internal/runpack"
)

// Satellite: every registered experiment fingerprints, canonicalizes, and
// round-trips through jcs — the declarative half of the runpack contract.
func TestValidateFullRegistry(t *testing.T) {
	if err := registry(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

// Acceptance: runpack verify accepts every pack RunPacked produces, across
// the whole registry. Each pack carries the assembly provenance and a
// distinct ID.
func TestRunPackedAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	reg := registry(t)
	key := runpack.DevKey()
	env := simEnv(11)
	seen := map[string]string{}
	for _, name := range reg.Names() {
		res, pack, err := reg.RunPacked(context.Background(), env, name, key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := pack.Verify(runpack.VerifyOpts{Key: &key}); err != nil {
			t.Errorf("%s: sealed pack fails verify: %v", name, err)
		}
		if pack.Manifest.Provenance.Registry != "sms/experiments" {
			t.Errorf("%s: provenance registry = %q", name, pack.Manifest.Provenance.Registry)
		}
		if pack.Manifest.Seed != res.Provenance.Seed {
			t.Errorf("%s: manifest seed %d != provenance seed %d", name, pack.Manifest.Seed, res.Provenance.Seed)
		}
		if prev, dup := seen[pack.ID]; dup {
			t.Errorf("pack ID collision: %s and %s", prev, name)
		}
		seen[pack.ID] = name
	}
	if len(seen) != reg.Len() {
		t.Fatalf("sealed %d packs, want %d", len(seen), reg.Len())
	}
}

// The material fields of a report.full pack are a pure function of the
// run: sealing it with no store, with a cold store, and with a store whose
// report sections were warmed by another seed differs in provenance only.
// The section hit/miss split of each run is visible in telemetry.
func TestReportPackIgnoresCacheState(t *testing.T) {
	reg := registry(t)
	key := runpack.DevKey()
	seal := func(store cas.Store) (*runpack.Pack, *exp.Env) {
		t.Helper()
		env := simEnv(3)
		env.Store = store
		_, pack, err := reg.RunPacked(context.Background(), env, "report.full", key)
		if err != nil {
			t.Fatal(err)
		}
		return pack, env
	}
	bare, _ := seal(nil)
	cold, coldEnv := seal(cas.NewMemStore())
	if coldEnv.Metrics.Counter("report.shards.exec") == 0 {
		t.Fatal("cold store: no report section rendered")
	}
	warmed := cas.NewMemStore()
	other := simEnv(4)
	other.Store = warmed
	if _, err := reg.Run(context.Background(), other, "report.full"); err != nil {
		t.Fatal(err)
	}
	warm, warmEnv := seal(warmed)
	if warmEnv.Metrics.Counter("report.shards.hit") == 0 || warmEnv.Metrics.Counter("report.shards.exec") != 0 {
		t.Fatalf("section-warm store: report.shards.hit=%d report.shards.exec=%d, want every section a hit",
			warmEnv.Metrics.Counter("report.shards.hit"), warmEnv.Metrics.Counter("report.shards.exec"))
	}
	for _, c := range []struct {
		name string
		pack *runpack.Pack
	}{{"cold store", cold}, {"section-warm store", warm}} {
		if d := runpack.Diff(bare, c.pack); d.Material {
			t.Errorf("%s: material drift against the storeless run:\n%s", c.name, d.Text())
		}
	}
}

// PackDirName keeps registry namespaces out of the filesystem.
func TestPackDirName(t *testing.T) {
	if got := PackDirName("sweep/slack"); got != "sweep__slack" {
		t.Fatalf("PackDirName = %q", got)
	}
	if got := PackDirName("report.full"); got != "report.full" {
		t.Fatalf("PackDirName = %q", got)
	}
}
