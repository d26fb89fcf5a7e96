package rng_test

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
)

// The stream is part of the repo's reproducibility contract: goldens
// derived from it (bootstrap stabilities, fault sweeps, Poisson traces)
// assume these exact bits for a given seed, on every machine.
func TestGoldenStream(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want []uint64
	}{
		{42, []uint64{0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52, 0x581CE1FF0E4AE394}},
		{0, []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4}},
		{-1, []uint64{0xE4D971771B652C20, 0xE99FF867DBF682C9}},
		{1 << 62, []uint64{0x00AA50EA8E0FA9EB, 0xBD6764BFAB3217FD}},
	} {
		r := rng.New(c.seed)
		for i, w := range c.want {
			if got := r.Uint64(); got != w {
				t.Fatalf("seed %d: Uint64 #%d = %#016x, want %#016x", c.seed, i, got, w)
			}
		}
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c, d := rng.New(1), rng.New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
	// Seeded (value) and New (pointer) expose the identical stream.
	v := rng.Seeded(7)
	p := rng.New(7)
	for i := 0; i < 100; i++ {
		if v.Uint64() != p.Uint64() {
			t.Fatal("Seeded and New streams differ")
		}
	}
}

// Distribution sanity over 200k draws: loose bounds, tight enough to catch
// a broken finalizer or a bad scaling constant.
func TestFloat64Distribution(t *testing.T) {
	r := rng.New(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("Float64 variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormFloat64Distribution(t *testing.T) {
	r := rng.New(4)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Distribution(t *testing.T) {
	r := rng.New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("ExpFloat64 = %v negative", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := rng.New(6)
	for _, n := range []int{1, 2, 7, 8, 28, 1000} {
		counts := make([]int, n)
		draws := 2000 * n
		for i := 0; i < draws; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			counts[v]++
		}
		for v, c := range counts {
			if c < draws/n/2 || c > draws/n*2 {
				t.Errorf("Intn(%d): value %d drawn %d times, expected ~%d", n, v, c, draws/n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// Shuffling the identity yields a permutation of [0, n).
func TestPermIsPermutation(t *testing.T) {
	r := rng.New(8)
	for _, n := range []int{0, 1, 5, 100} {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("shuffle of %d = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Seed-split independence: the par.SplitSeed(root, shard) convention must
// hand every shard a stream that neither collides with nor tracks its
// neighbours'.
func TestSeedSplitIndependence(t *testing.T) {
	const shards, draws = 64, 256
	seen := map[uint64]bool{}
	for s := 0; s < shards; s++ {
		r := rng.New(par.SplitSeed(99, s))
		for i := 0; i < draws; i++ {
			seen[r.Uint64()] = true
		}
	}
	if len(seen) != shards*draws {
		t.Errorf("%d collisions across %d split streams", shards*draws-len(seen), shards)
	}
	// Adjacent-shard streams must be uncorrelated: the sample correlation
	// of their Float64 draws should be statistically indistinguishable
	// from zero (|r| ≲ 3/sqrt(n)).
	a := rng.New(par.SplitSeed(99, 0))
	b := rng.New(par.SplitSeed(99, 1))
	const n = 20000
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	cov := sab/n - (sa/n)*(sb/n)
	corr := cov / math.Sqrt((saa/n-(sa/n)*(sa/n))*(sbb/n-(sb/n)*(sb/n)))
	if math.Abs(corr) > 3/math.Sqrt(n) {
		t.Errorf("adjacent split streams correlate: r = %v", corr)
	}
}

// The whole point of the package: zero heap traffic per draw.
func TestDrawsDoNotAllocate(t *testing.T) {
	r := rng.New(11)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Uint64()
		_ = r.Float64()
		_ = r.Intn(28)
		_ = r.ExpFloat64()
		_ = r.NormFloat64()
	})
	if allocs != 0 {
		t.Errorf("allocs per draw batch = %v, want 0", allocs)
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := rng.New(1)
	var x float64
	for i := 0; i < b.N; i++ {
		x += r.Float64()
	}
	_ = x
}

func BenchmarkIntn(b *testing.B) {
	r := rng.New(1)
	var x int
	for i := 0; i < b.N; i++ {
		x += r.Intn(28)
	}
	_ = x
}

func BenchmarkNormFloat64(b *testing.B) {
	r := rng.New(1)
	var x float64
	for i := 0; i < b.N; i++ {
		x += r.NormFloat64()
	}
	_ = x
}

// Split is the counter-based form of the stream: draw i of Split equals the
// (i+1)-th Uint64 of a generator at the same seed.
func TestSplitMatchesStream(t *testing.T) {
	for _, seed := range []int64{0, -1, 42, 1 << 62} {
		r := rng.Seeded(seed)
		for i := uint64(0); i < 8; i++ {
			if got, want := rng.Split(uint64(seed), i), r.Uint64(); got != want {
				t.Fatalf("Split(%d, %d) = %#016x, want %#016x", seed, i, got, want)
			}
		}
	}
}
