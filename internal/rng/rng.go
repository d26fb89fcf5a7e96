// Package rng is the repo's Monte-Carlo random number generator: a tiny,
// allocation-free, inlineable deterministic generator for the simulation
// inner loops (bootstrap resampling, fault injection, Poisson traces, loss
// injection) where the interface dispatch inside math/rand dominates the
// per-draw cost.
//
// The core is the SplitMix64 sequence of Steele et al. (OOPSLA'14). Its
// finalizer is written once, here: Rand steps the sequence, and Split
// reads any draw of it directly, which is the counter-based form behind
// par.SplitSeed, exp.Env.SeedFor and every hash-derived draw. So the whole
// randomness story of the repo reduces to one primitive: a root seed is
// split into per-shard seeds with par.SplitSeed, and each shard drives a
// rng.Rand seeded with its split. State is 8 bytes, every draw is
// a handful of arithmetic ops with no locks, no interfaces and no heap
// traffic, and the stream depends only on the seed — never on scheduling,
// worker counts, or the machine.
//
// Rand intentionally mirrors the subset of math/rand.Rand the hot paths
// use (Float64, Intn, ExpFloat64, NormFloat64, Perm, Shuffle), with the
// same parameter conventions, so call sites swap by changing the
// constructor. The streams differ from math/rand — swapping regenerates
// any stream-derived golden exactly once.
package rng

import "math"

// Rand is a deterministic SplitMix64-based generator. The zero value is a
// valid generator seeded with 0; use New/Seeded or Seed to pick a stream.
// It is not safe for concurrent use — give each goroutine (shard) its own
// Rand seeded via par.SplitSeed, which is the point.
type Rand struct {
	state uint64
	// spare caches the second normal of a polar Box-Muller pair so
	// NormFloat64 costs one log+sqrt per two draws.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seeded returns a generator by value — embed it in a struct or keep it on
// the stack for zero-allocation shard bodies.
func Seeded(seed int64) Rand {
	var r Rand
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed, discarding
// any cached normal.
func (r *Rand) Seed(seed int64) {
	r.state = uint64(seed)
	r.hasSpare = false
}

// gamma is the SplitMix64 increment: 2^64 divided by the golden ratio,
// rounded to odd.
const gamma = 0x9E3779B97F4A7C15

// mix is the SplitMix64 finalizer: two xor-shift-multiplies and a final
// xor-shift, a bijection on 64 bits that avalanches every input bit.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Split returns draw i (from 0) of the SplitMix64 stream seeded at seed,
// the value Seeded(seed) returns from its (i+1)-th Uint64, without
// stepping a generator. Callers derive independent seeds and uniforms
// from it: par.SplitSeed splits by shard index, and the hash-derived
// draws pass an FNV-1a hash of their key as i.
func Split(seed, i uint64) uint64 { return mix(seed + (i+1)*gamma) }

// Uint64 returns the next 64 uniformly distributed bits: one SplitMix64
// step (add the golden-gamma, then finalize). SplitMix64 passes BigCrush;
// each call is two xor-shift-multiplies and an add.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Power-of-two
// bounds are a mask; general bounds use the math/rand rejection scheme, so
// the result is exactly uniform.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Int63() & int64(n-1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return int(v % int64(n))
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inversion: -ln(1-U) for U in [0, 1).
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal float64 via the polar Box-Muller
// method, caching the pair's second value. Unlike math/rand's ziggurat it
// needs no tables, keeping the generator 16 bytes and trivially portable.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Shuffle permutes n elements with Fisher-Yates, calling swap(i, j) for
// each exchange. It panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
