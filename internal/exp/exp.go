// Package exp is the unified experiment engine: one Env/Spec/Result
// contract shared by every executable workload in the repository — the
// Table 2 integration scenarios, the report build, the orchestrator sweeps,
// and the continuum what-ifs.
//
// Before this package each layer hand-wired its own clock, RNG seeding,
// telemetry, parallelism, and caching (or skipped them: scenarios seeded
// math/rand directly and emitted no spans). The surveyed reproducibility
// literature — Diercks et al. on declarative run contracts (arXiv:2211.06429)
// and the Reproducible Workflow case for environment capture
// (arXiv:2012.13427) — converges on the same precondition: a run is
// reproducible only when its environment is an explicit, injectable value
// and its configuration has a stable identity. Env is that environment,
// Spec is that identity, and Result carries the provenance linking the two.
//
// Determinism obligations (DESIGN.md §6): an experiment body must derive
// every random stream from the Env (Env.Rng / Env.SeedFor, further split
// with par.SplitSeed), must read time only through Env clocks, and must
// produce artifacts that are byte-identical for any par.Workers(n). Under
// those obligations the registry can memoize whole experiments on
// (Spec fingerprint, Env seed) through a content-addressed store: a warm
// run executes zero bodies and returns byte-identical artifacts.
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// specVersion is folded into every Spec fingerprint; bump it when the
// fingerprint recipe itself changes.
const specVersion = "exp/spec/v1"

// Env is the execution environment injected into every experiment: the
// complete set of ambient capabilities a body may use. The zero value is a
// valid wall-clock environment with seed 0 and no telemetry or caching.
type Env struct {
	// Clock is the experiment time source (nil = clock.System). Inject a
	// *clock.Sim to make every timestamp — spans, journals, provenance — a
	// pure function of the run.
	Clock clock.Clock
	// Seed is the root randomness of the run. Experiments never consume it
	// directly: each derives its own independent stream with SeedFor/Rng,
	// so experiments sharing an Env cannot perturb each other.
	Seed int64
	// Metrics receives counters, series and spans (nil = no telemetry).
	Metrics *telemetry.Registry
	// Par configures the worker pool for parallel experiment bodies. By
	// the determinism obligations, worker count never changes results.
	Par []par.Option
	// Store, when non-nil, enables whole-experiment memoization in
	// Registry.Run and is available to bodies for step-level caching.
	Store cas.Store
}

// Clk returns the environment clock, defaulting to the system clock.
func (e *Env) Clk() clock.Clock { return clock.Or(e.Clock) }

// ParOpts returns the par options for experiment bodies (safe on nil Par).
func (e *Env) ParOpts() []par.Option { return e.Par }

// SeedFor derives the independent sub-seed for a named stream: FNV-1a over
// the name folded with the root seed through rng.Split — the same
// construction as par.SplitSeed and clock.Sim.WorkDuration, so the whole
// randomness story of the repo stays one primitive. Distinct names
// yield independent streams; the same (root, name) pair always yields the
// same seed, regardless of call order or goroutine.
func (e *Env) SeedFor(name string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(rng.Split(uint64(e.Seed), h))
}

// Rng returns a fresh deterministic generator for the named stream. By
// convention an experiment uses its own Spec name (or "name/purpose" for
// several streams), so no two experiments ever share a stream.
func (e *Env) Rng(name string) *rng.Rand { return rng.New(e.SeedFor(name)) }

// IndexedSeed derives the seed of element i of the named stream:
// par.SplitSeed over the stream's root seed. It is the contract behind
// indexed generation (corpus entries, scengen configurations) — element i
// is a pure function of (Env.Seed, name, i), independent of every other
// element, so indexed families shard and memoize without ordering
// constraints.
func (e *Env) IndexedSeed(name string, i int) int64 {
	return par.SplitSeed(e.SeedFor(name), i)
}

// Span is a nil-safe handle for an in-flight telemetry span.
type Span struct{ a *telemetry.ActiveSpan }

// End finishes the span (no-op when telemetry is off).
func (s Span) End(err error) {
	if s.a != nil {
		s.a.End(err)
	}
}

// StartSpan begins a span on the environment's metrics registry and clock.
// It is safe to call with no Metrics configured.
func (e *Env) StartSpan(kind, name string) Span {
	if e.Metrics == nil {
		return Span{}
	}
	return Span{a: e.Metrics.StartSpan(e.Clk(), kind, name)}
}

// Spec is the declarative identity of an experiment: a registry-unique name
// plus the JSON-serializable parameters that determine its behaviour.
// Everything that can change an experiment's output — sizes, probabilities,
// retry budgets, renderer versions — belongs in Params; everything ambient
// (clock, seed, workers, store) belongs in Env.
type Spec struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// Fingerprint returns the stable SHA-256 hex identity of the spec: a hash
// over the spec version, the name, and the canonical JSON encoding of the
// parameters (encoding/json sorts map keys, so insertion order never leaks
// into the fingerprint). It is the memo-key root for every cached artifact
// derived from this spec.
func (s Spec) Fingerprint() (string, error) {
	params, err := json.Marshal(s.Params)
	if err != nil {
		return "", fmt.Errorf("exp: fingerprinting %q: %w", s.Name, err)
	}
	h := sha256.New()
	field := func(b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	field([]byte(specVersion))
	field([]byte(s.Name))
	field(params)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Provenance records how a Result was produced — enough to reproduce it.
type Provenance struct {
	// Experiment is the Spec name.
	Experiment string `json:"experiment"`
	// Fingerprint is the Spec fingerprint at run time.
	Fingerprint string `json:"fingerprint"`
	// Seed is the derived per-experiment seed (Env.SeedFor(name)).
	Seed int64 `json:"seed"`
	// Cached reports that the result was served from the Env store without
	// executing the body. Never part of the stored artifact.
	Cached bool `json:"cached,omitempty"`
}

// Result is what an experiment produces: named textual artifacts, scalar
// metrics, and the provenance of the run. Artifacts must be byte-identical
// for any worker count; the whole Result must round-trip through JSON (the
// registry stores it content-addressed).
type Result struct {
	Artifacts  map[string]string  `json:"artifacts,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Provenance Provenance         `json:"provenance"`
}

// RunFunc is an experiment body. It receives the shared Env and its own
// Spec and returns the Result; the registry fills in provenance.
type RunFunc func(ctx context.Context, env *Env, spec Spec) (*Result, error)

// Experiment is one registered workload: a Spec, optional Table 2
// coordinates (App×Tool, empty for engine-level experiments like the
// report build), a description, and the body.
type Experiment struct {
	Spec Spec
	// App and Tool tie a scenario experiment to its Table 2 checkmark.
	App, Tool string
	Desc      string
	Run       RunFunc
}
