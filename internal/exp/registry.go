package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cas"
)

// Registry holds the executable experiments by name. It is the single seam
// the CLIs (-list / -run), the report builder, and the sweep drivers share:
// registering here is what makes a workload listable, runnable, and
// memoizable under the uniform contract.
type Registry struct {
	byName map[string]Experiment
	// fps holds each experiment's Spec fingerprint, computed once by
	// Register: a registered Spec must not change.
	fps map[string]string
	// name is the assembly name recorded in runpack provenance (see
	// SetName / Name in seal.go).
	name string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Experiment{}, fps: map[string]string{}}
}

// Register adds an experiment. The name must be non-empty and unique, the
// body non-nil, and the spec fingerprintable (JSON-serializable params) —
// a spec that cannot be fingerprinted cannot be cached or reproduced, so it
// is rejected at registration time, not at run time.
func (r *Registry) Register(e Experiment) error {
	if e.Spec.Name == "" {
		return fmt.Errorf("exp: experiment with empty name")
	}
	if e.Run == nil {
		return fmt.Errorf("exp: experiment %q has no body", e.Spec.Name)
	}
	if _, dup := r.byName[e.Spec.Name]; dup {
		return fmt.Errorf("exp: duplicate experiment %q", e.Spec.Name)
	}
	fp, err := e.Spec.Fingerprint()
	if err != nil {
		return err
	}
	r.byName[e.Spec.Name] = e
	r.fps[e.Spec.Name] = fp
	return nil
}

// Get returns the named experiment.
func (r *Registry) Get(name string) (Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// Names returns every registered name in sorted order — the canonical
// listing and sweep order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Experiments returns the registered experiments in Names() order.
func (r *Registry) Experiments() []Experiment {
	names := r.Names()
	out := make([]Experiment, len(names))
	for i, n := range names {
		out[i] = r.byName[n]
	}
	return out
}

// Len returns the number of registered experiments.
func (r *Registry) Len() int { return len(r.byName) }

// memoKey derives the whole-experiment memo key: the spec fingerprint plus
// the derived seed (the only Env ingredient that may change a conforming
// experiment's output — clock, workers and telemetry must not).
func memoKey(fp string, seed int64) string {
	return fmt.Sprintf("%s:seed=%d", fp, seed)
}

// Run executes the named experiment under env, wrapped in an "exp.run"
// span. With env.Store set, the run is memoized: the Result is stored
// content-addressed under StepKey("exp", name, fingerprint‖seed), and a
// warm invocation decodes the stored Result without executing the body
// (Provenance.Cached reports which path was taken, and the exp.hits /
// exp.misses counters accumulate on env.Metrics).
func (r *Registry) Run(ctx context.Context, env *Env, name string) (*Result, error) {
	e, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (see -list)", name)
	}
	seed := env.SeedFor(name)

	sp := env.StartSpan("exp.run", name)
	res, err := r.run(ctx, env, e, r.fps[name], seed)
	sp.End(err)
	return res, err
}

func (r *Registry) run(ctx context.Context, env *Env, e Experiment, fp string, seed int64) (*Result, error) {
	name := e.Spec.Name
	var key cas.Key
	if env.Store != nil {
		key = cas.StepKey("exp", name, memoKey(fp, seed), nil)
		if res, ok, err := lookup(env, key, name); err != nil {
			return nil, err
		} else if ok {
			return res, nil
		}
	}

	res, err := e.Run(ctx, env, e.Spec)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	if res == nil {
		res = &Result{}
	}
	res.Provenance = Provenance{Experiment: name, Fingerprint: fp, Seed: seed}

	if env.Store != nil {
		data, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: encoding result: %w", name, err)
		}
		sp := env.StartSpan("exp.put", name)
		artifact, err := env.Store.Put(data)
		if err == nil {
			err = env.Store.Link(key, artifact)
		}
		sp.End(err)
		if err != nil {
			return nil, err
		}
		if env.Metrics != nil {
			env.Metrics.Inc("exp.misses", 1)
			env.Metrics.Inc("exp.bytes", int64(len(data)))
		}
	}
	return res, nil
}

// lookup serves a memoized Result from the store, when present.
func lookup(env *Env, key cas.Key, name string) (*Result, bool, error) {
	target, ok, err := env.Store.Resolve(key)
	if err != nil || !ok {
		return nil, false, err
	}
	sp := env.StartSpan("exp.get", name)
	data, found, err := env.Store.Get(target)
	sp.End(err)
	if err != nil || !found {
		// A dangling link (artifact evicted) falls back to executing.
		return nil, false, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false, fmt.Errorf("exp: %s: decoding cached result: %w", name, err)
	}
	res.Provenance.Cached = true
	if env.Metrics != nil {
		env.Metrics.Inc("exp.hits", 1)
	}
	return &res, true, nil
}

// RunAll executes every registered experiment in Names() order under one
// shared Env — the registry sweep. It stops at the first failure; with a
// warm env.Store the sweep executes zero bodies.
func (r *Registry) RunAll(ctx context.Context, env *Env) ([]*Result, error) {
	names := r.Names()
	out := make([]*Result, 0, len(names))
	for _, n := range names {
		res, err := r.Run(ctx, env, n)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
