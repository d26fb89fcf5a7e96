package serve

// The admission cost model makes the daemon's load behaviour a pure
// function of the request sequence: each request is assigned a virtual
// service time (a seeded hash of its endpoint and path — never a wall-clock
// measurement) and scheduled onto a small bank of virtual workers. A
// request whose queue wait would exceed the admission bound is rejected
// with 429 before its handler runs. Under the single-threaded load
// generator the model replaces scheduler timing entirely, which is what
// lets a million-request replay produce byte-identical latency series on
// any real worker count.

import (
	"sync"

	"repro/internal/rng"
)

// Virtual service times per endpoint, in seconds. Submissions are the
// expensive admission decision; status polls are near-free; /metrics pays
// for rendering the exposition.
var baseCostS = map[string]float64{
	"submit":   1500e-6,
	"status":   120e-6,
	"artifact": 350e-6,
	"list":     500e-6,
	"metrics":  3000e-6,
}

const defaultCostS = 200e-6

// CostModel is the deterministic admission/latency model. Calls are
// serialized internally; determinism additionally requires that requests
// arrive in a deterministic order (the load generator is single-threaded).
type CostModel struct {
	mu       sync.Mutex
	seed     int64
	free     []float64 // per-virtual-worker next-free time, seconds
	maxWaitS float64
}

// NewCostModel returns a model with the given seed, virtual worker count,
// and admission bound: a request that would wait longer than maxWaitS for a
// virtual worker is rejected.
func NewCostModel(seed int64, virtualWorkers int, maxWaitS float64) *CostModel {
	if virtualWorkers <= 0 {
		virtualWorkers = 1
	}
	return &CostModel{seed: seed, free: make([]float64, virtualWorkers), maxWaitS: maxWaitS}
}

// Admit schedules one request arriving at nowS. It returns the modeled
// latency (queue wait + service time) and true, or (0, false) when the
// request is rejected. Rejected requests leave the model untouched.
func (c *CostModel) Admit(endpoint, key string, nowS float64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	base, ok := baseCostS[endpoint]
	if !ok {
		base = defaultCostS
	}
	// Service time jitters ±50% around the endpoint base, keyed on the
	// request identity: svc = base * (0.5 + h) for h in [0, 1).
	svc := base * (0.5 + c.hash01(endpoint, key))
	best := 0
	for i, f := range c.free {
		if f < c.free[best] {
			best = i
		}
	}
	start := nowS
	if c.free[best] > start {
		start = c.free[best]
	}
	if start-nowS > c.maxWaitS {
		return 0, false
	}
	finish := start + svc
	c.free[best] = finish
	return finish - nowS, true
}

// hash01 maps (endpoint, key, seed) onto [0, 1): FNV-1a over the request
// identity folded with the seed through rng.Split — the same primitive as
// Env.SeedFor and par.SplitSeed, so the model's randomness
// depends only on its inputs, never on call order.
func (c *CostModel) hash01(endpoint, key string) float64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= uint64('|')
		h *= 1099511628211
	}
	mix(endpoint)
	mix(key)
	return float64(rng.Split(uint64(c.seed), h)>>11) * 0x1p-53
}
