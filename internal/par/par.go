// Package par is the repo's deterministic parallel-execution substrate.
//
// Every statistically heavy path in the reproduction (bootstrap resampling,
// fault/placement sweeps, report rendering) follows the
// same recipe: split the work into a *fixed* number of shards, give each
// shard an independent RNG derived from the root seed with a SplitMix64
// seed splitter (counter-based seeding in the spirit of Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), run the shards on
// a bounded worker pool, and merge the per-shard results in shard index
// order regardless of completion order.
//
// Because the shard count and the per-shard seeds depend only on the input
// size and the root seed — never on the worker count or on scheduling —
// the result is bit-identical for any Workers(n), and Workers(1) executes
// everything on the calling goroutine (today's sequential behaviour).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// defaultShards is the fixed shard count for inputs larger than it. It is a
// constant (not GOMAXPROCS-derived) so that shard boundaries — and hence
// per-shard RNG streams and float merge order — are identical on every
// machine.
const defaultShards = 32

// DefaultGrain is the minimum number of items per shard below which an
// execution skips the worker pool and runs every shard inline on the
// calling goroutine. It is tuned for nanosecond-scale item bodies (a float
// multiply-add per item): below ~4k such items per shard, goroutine
// startup and the work-handoff atomics cost more than the loop itself, and
// "parallel" runs slower than sequential (the BenchmarkMapReducePar
// regression this threshold fixes). Call sites whose items are expensive —
// a distance kernel, a bootstrap trial, a whole simulation — declare it
// with Grain (e.g. Grain(1) for simulation sweeps), because per-item cost
// is something only the call site knows.
//
// The fallback changes only *where* shards execute, never how the work is
// split: shard boundaries, per-shard seeds, and merge order are identical,
// so results stay bit-for-bit the same.
const DefaultGrain = 4096

// options configures a parallel execution.
type options struct {
	workers int
	shards  int
	grain   int
}

// Option configures For / MapReduceN executions.
type Option func(*options)

// Workers bounds the worker pool. Values below 1 fall back to 1; the
// default is runtime.GOMAXPROCS(0). Workers(1) runs all shards sequentially
// on the calling goroutine. The worker count never changes results — only
// how many shards execute concurrently.
func Workers(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.workers = n
		} else {
			o.workers = 1
		}
	}
}

// Grain declares the smallest number of items per shard worth a worker
// handoff for this call site's item cost: executions with fewer items per
// shard run inline on the calling goroutine (identical results, no
// goroutines). The default is DefaultGrain, tuned for trivial item bodies;
// pass small values (down to Grain(1)) when each item is itself heavy.
// Values below 1 fall back to 1.
func Grain(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.grain = n
		} else {
			o.grain = 1
		}
	}
}

func buildOptions(opts []Option) options {
	o := options{workers: runtime.GOMAXPROCS(0), shards: defaultShards, grain: DefaultGrain}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// workersFor applies the grain-size fallback: when the per-shard item
// count is below the configured grain, the shards run inline (workers 1).
func (o options) workersFor(n, nShards int) int {
	if nShards > 0 && n/nShards < o.grain {
		return 1
	}
	return o.workers
}

// SplitSeed derives the shard-th sub-seed from a root seed: draw shard of
// the SplitMix64 stream at root (rng.Split; Steele et al., OOPSLA'14).
// Distinct shards get statistically independent, reproducible streams; the
// mapping depends only on (root, shard).
func SplitSeed(root int64, shard int) int64 {
	return int64(rng.Split(uint64(root), uint64(shard)))
}

// shardBounds returns the half-open range of shard s when n items are split
// into nShards contiguous chunks whose sizes differ by at most one.
func shardBounds(n, nShards, s int) (lo, hi int) {
	q, r := n/nShards, n%nShards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

// runShards executes fn(shard) for every shard in [0, nShards) on at most
// `workers` goroutines. With workers == 1 everything runs inline on the
// calling goroutine in shard order.
func runShards(nShards, workers int, fn func(shard int)) {
	if nShards <= 0 {
		return
	}
	if workers > nShards {
		workers = nShards
	}
	if workers <= 1 {
		for s := 0; s < nShards; s++ {
			fn(s)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1))
				if s >= nShards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}

// ForShards partitions [0, n) into the configured number of contiguous
// shards and calls fn(shard, lo, hi) once per shard on the worker pool.
// Shard boundaries depend only on n and the Shards option.
func ForShards(n int, fn func(shard, lo, hi int), opts ...Option) {
	o := buildOptions(opts)
	nShards := min(o.shards, n)
	runShards(nShards, o.workersFor(n, nShards), func(s int) {
		lo, hi := shardBounds(n, nShards, s)
		fn(s, lo, hi)
	})
}

// For calls body(i) for every i in [0, n) using the worker pool. Iterations
// must be independent (each i writes only state owned by i).
func For(n int, body func(i int), opts ...Option) {
	ForShards(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	}, opts...)
}

// MapReduceN maps the index range [0, n): each shard computes one partial
// result from its half-open range, and the partials are folded left in
// shard index order — merge(merge(r0, r1), r2)… — regardless of which
// worker finished first. This is what keeps non-associative merges
// (floating-point sums, string concatenation) bit-identical across worker
// counts. Errors are reported by the lowest-indexed failing shard; the
// merged result is only valid when the error is nil.
func MapReduceN[R any](n int, mapShard func(shard, lo, hi int) (R, error), merge func(R, R) R, opts ...Option) (R, error) {
	o := buildOptions(opts)
	nShards := min(o.shards, n)
	var zero R
	if nShards <= 0 {
		return zero, nil
	}
	results := make([]R, nShards)
	errs := make([]error, nShards)
	runShards(nShards, o.workersFor(n, nShards), func(s int) {
		lo, hi := shardBounds(n, nShards, s)
		results[s], errs[s] = mapShard(s, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return zero, err
		}
	}
	acc := results[0]
	for s := 1; s < nShards; s++ {
		acc = merge(acc, results[s])
	}
	return acc, nil
}

// MapReduceScratch is MapReduceN with a per-shard scratch value recycled
// through the typed pool: each shard borrows one scratch before walking its
// range and returns it when done, so shard bodies that need working
// buffers (resample tallies, partial-sum rows) allocate nothing in steady
// state — repeated calls reuse the same buffers across the whole process.
//
// The scratch is loaned for the duration of one shard body only: it must
// not escape into the shard's result R (the pool hands it to another shard
// as soon as the body returns). The body is responsible for resetting any
// state it reads before writing — pooled values arrive dirty.
func MapReduceScratch[R, S any](n int, pool *Pool[S], mapShard func(shard, lo, hi int, scratch S) (R, error), merge func(R, R) R, opts ...Option) (R, error) {
	return MapReduceN(n, func(shard, lo, hi int) (R, error) {
		scratch := pool.Get()
		r, err := mapShard(shard, lo, hi, scratch)
		pool.Put(scratch)
		return r, err
	}, merge, opts...)
}
