package scengen

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

func testEnv(workers int, store cas.Store) *exp.Env {
	sim := clock.NewSim(1)
	env := &exp.Env{Seed: 1, Clock: sim, Metrics: telemetry.NewWithClock(sim), Store: store}
	if workers > 0 {
		env.Par = []par.Option{par.Workers(workers)}
	}
	return env
}

// The generated exploration must clear the ≥1000-configuration floor, with
// stable distinct family names — sizes are part of every registered Spec,
// so growing or shrinking a family is a deliberate, fingerprint-changing
// act.
func TestFamiliesShape(t *testing.T) {
	total := 0
	seen := map[string]bool{}
	for _, f := range Families() {
		if f.Name == "" || f.Desc == "" || f.Size <= 0 {
			t.Fatalf("malformed family %+v", f)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		if f.Size%ShardSize != 0 {
			// Not required for correctness, but keeps the committed family
			// geometry honest: every registered shard is full.
			t.Errorf("family %s size %d is not a multiple of the shard size %d", f.Name, f.Size, ShardSize)
		}
		total += f.Size
	}
	if total < 1000 {
		t.Fatalf("families generate %d configurations, want ≥ 1000", total)
	}
}

// family returns the named family, failing the test on an unknown name.
func family(t testing.TB, name string) Family {
	t.Helper()
	for _, f := range Families() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("unknown family %q", name)
	return Family{}
}

// composition renders ops as kind and JSON parameters, one per line: two
// compositions render alike exactly when they run the same ops with the
// same parameters.
func composition(t *testing.T, ops []scenarios.Op) string {
	t.Helper()
	var b strings.Builder
	for _, op := range ops {
		data, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", op.Kind(), data)
	}
	return b.String()
}

// Configuration i is a pure function of (env seed, family, i): regenerating
// it yields the identical composition, and neighbouring indices yield
// different ones.
func TestConfigPurity(t *testing.T) {
	env := testEnv(0, nil)
	for _, f := range Families() {
		for _, i := range []int{0, 1, 17, f.Size - 1} {
			a := composition(t, f.Config(env, i).Ops)
			b := composition(t, f.Config(env, i).Ops)
			if a != b {
				t.Fatalf("%s[%d] not pure:\n%s\nvs\n%s", f.Name, i, a, b)
			}
		}
		a := composition(t, f.Config(env, 0).Ops)
		b := composition(t, f.Config(env, 1).Ops)
		if a == b {
			t.Fatalf("%s[0] and %s[1] generated identical compositions", f.Name, f.Name)
		}
	}
}

// The family aggregate is bit-identical at workers 1, 4, and 8.
func TestFamilyDeterminismAcrossWorkers(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			var ref *Aggregate
			for _, w := range []int{1, 4, 8} {
				agg, _, err := RunFamily(context.Background(), testEnv(w, nil), f)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = agg
					continue
				}
				if !reflect.DeepEqual(ref, agg) {
					t.Fatalf("aggregate drifted at %d workers:\n%s\nvs\n%s", w, ref.Render(), agg.Render())
				}
			}
		})
	}
}

// With a store, the first run executes every shard and the second resolves
// every shard from cache — zero configuration bodies — with a bit-identical
// aggregate.
func TestFamilyColdWarm(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			store := cas.NewMemStore()

			cold := testEnv(4, store)
			a, stats, err := RunFamily(context.Background(), cold, f)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ShardsExecuted != NumShards(f.Size) || stats.ShardsCached != 0 {
				t.Fatalf("cold run: %+v", stats)
			}

			warm := testEnv(4, store)
			b, stats, err := RunFamily(context.Background(), warm, f)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ShardsCached != NumShards(f.Size) || stats.ShardsExecuted != 0 {
				t.Fatalf("warm run: %+v", stats)
			}
			if got := warm.Metrics.Counter("scengen.configs.exec"); got != 0 {
				t.Fatalf("warm run executed %d configuration bodies, want 0", got)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cold and warm aggregates differ:\n%s\nvs\n%s", a.Render(), b.Render())
			}

			// A different env seed is a different exploration: no key reuse.
			other := testEnv(4, store)
			other.Seed = 2
			_, stats, err = RunFamily(context.Background(), other, f)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ShardsCached != 0 {
				t.Fatalf("seed 2 hit seed 1's shards: %+v", stats)
			}
		})
	}
}

// The experiment adapters mirror the families one-to-one with stable names
// and fingerprintable specs, and their Results are byte-identical cold and
// warm (the warm Result must not leak cache statistics).
func TestExperimentsMirrorFamilies(t *testing.T) {
	exps := Experiments()
	fams := Families()
	if len(exps) != len(fams) {
		t.Fatalf("%d experiments for %d families", len(exps), len(fams))
	}
	for i, e := range exps {
		if want := "scengen/" + fams[i].Name; e.Spec.Name != want {
			t.Fatalf("experiment %d named %q, want %q", i, e.Spec.Name, want)
		}
		if _, err := e.Spec.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}

	e := exps[len(exps)-1] // corpus: the cheapest family
	store := cas.NewMemStore()
	cold, err := e.Run(context.Background(), testEnv(4, store), e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Run(context.Background(), testEnv(4, store), e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(cold)
	wj, _ := json.Marshal(warm)
	if string(cj) != string(wj) {
		t.Fatalf("cold and warm Results differ:\n%s\nvs\n%s", cj, wj)
	}
}

// Stream names and step IDs seed every op stream, so they keep the bytes
// of the fmt verbs they replaced at every index, including past six digits.
func TestNamesMatchFormat(t *testing.T) {
	for _, i := range []int{0, 7, 42, 319, 999, 123456, 999999, 1000000, 12345678} {
		if got, want := streamName("faults", i), fmt.Sprintf("scengen/%s/%06d", "faults", i); got != want {
			t.Errorf("streamName(%d) = %q, want %q", i, got, want)
		}
	}
	for i, id := range stepIDs {
		if want := fmt.Sprintf("s%02d", i); id != want {
			t.Errorf("stepIDs[%d] = %q, want %q", i, id, want)
		}
	}
}
