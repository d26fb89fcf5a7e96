package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCategoricalDistBasics(t *testing.T) {
	d := NewCategoricalDist("a", "b", "c")
	if got := d.Total(); got != 0 {
		t.Fatalf("fresh Total = %d", got)
	}
	d.Observe("a")
	d.Add("b", 3)
	d.Observe("z") // auto-registered
	if d.Count("a") != 1 || d.Count("b") != 3 || d.Count("z") != 1 {
		t.Errorf("counts wrong: %v", d.counts)
	}
	if d.Total() != 5 {
		t.Errorf("Total = %d, want 5", d.Total())
	}
	cats := d.order
	want := []string{"a", "b", "c", "z"}
	if len(cats) != len(want) {
		t.Fatalf("Categories = %v", cats)
	}
	for i := range want {
		if cats[i] != want[i] {
			t.Errorf("Categories[%d] = %q, want %q", i, cats[i], want[i])
		}
	}
	if d.Count("c") != 0 {
		t.Errorf("registered but unobserved c = %d", d.Count("c"))
	}
}

func TestCategoricalDistClamping(t *testing.T) {
	d := NewCategoricalDist("x")
	d.Add("x", -5)
	if d.Count("x") != 0 {
		t.Errorf("negative add should clamp to 0, got %d", d.Count("x"))
	}
}

func TestShares(t *testing.T) {
	// The paper's Fig 2 distribution: 3/7/3/6/6 over 25 tools.
	d := NewCategoricalDist("interactive", "orchestration", "energy", "portability", "bigdata")
	d.Add("interactive", 3)
	d.Add("orchestration", 7)
	d.Add("energy", 3)
	d.Add("portability", 6)
	d.Add("bigdata", 6)
	if got := d.Share("orchestration"); !almostEqual(got, 0.28, 1e-12) {
		t.Errorf("orchestration share = %v, want 0.28", got)
	}
	if got := d.Share("interactive"); !almostEqual(got, 0.12, 1e-12) {
		t.Errorf("interactive share = %v, want 0.12", got)
	}
	sum := 0.0
	for _, c := range d.order {
		sum += d.Share(c)
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("shares sum = %v", sum)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	d := NewCategoricalDist()
	if _, err := d.ArgMax(); err != ErrEmpty {
		t.Errorf("ArgMax on empty err = %v", err)
	}
	if _, err := d.ArgMin(); err != ErrEmpty {
		t.Errorf("ArgMin on empty err = %v", err)
	}
	d.Add("a", 2)
	d.Add("b", 7)
	d.Add("c", 1)
	if got, _ := d.ArgMax(); got != "b" {
		t.Errorf("ArgMax = %q", got)
	}
	if got, _ := d.ArgMin(); got != "c" {
		t.Errorf("ArgMin = %q", got)
	}
	// Tie resolves to earliest registered.
	d2 := NewCategoricalDist("x", "y")
	d2.Add("x", 3)
	d2.Add("y", 3)
	if got, _ := d2.ArgMax(); got != "x" {
		t.Errorf("tie ArgMax = %q, want x", got)
	}
}

func TestEntropyAndBalance(t *testing.T) {
	d := NewCategoricalDist("a", "b", "c", "d")
	for _, c := range []string{"a", "b", "c", "d"} {
		d.Add(c, 5)
	}
	if got := d.Entropy(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("uniform entropy = %v, want 2 bits", got)
	}
	if got := d.Balance(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("uniform balance = %v, want 1", got)
	}
	skew := NewCategoricalDist("a", "b")
	skew.Add("a", 100)
	if got := skew.Entropy(); got != 0 {
		t.Errorf("degenerate entropy = %v, want 0", got)
	}
	if got := skew.Balance(); got != 0 {
		t.Errorf("degenerate balance = %v, want 0", got)
	}
}

func TestChiSquareUniform(t *testing.T) {
	d := NewCategoricalDist("a", "b")
	d.Add("a", 10)
	d.Add("b", 10)
	chi2, dof := d.ChiSquareUniform()
	if chi2 != 0 || dof != 1 {
		t.Errorf("uniform chi2 = %v dof = %d", chi2, dof)
	}
	d2 := NewCategoricalDist("a", "b")
	d2.Add("a", 20)
	chi2, dof = d2.ChiSquareUniform()
	if !almostEqual(chi2, 20, 1e-12) || dof != 1 {
		t.Errorf("skewed chi2 = %v dof = %d, want 20, 1", chi2, dof)
	}
}

func TestImbalance(t *testing.T) {
	// Fig 4 distribution 4/11/1/6/6: imbalance 11.
	d := NewCategoricalDist("ic", "orch", "energy", "pp", "bd")
	d.Add("ic", 4)
	d.Add("orch", 11)
	d.Add("energy", 1)
	d.Add("pp", 6)
	d.Add("bd", 6)
	if got := d.Imbalance(); !almostEqual(got, 11, 1e-12) {
		t.Errorf("Imbalance = %v, want 11", got)
	}
}

func TestIntHistogram(t *testing.T) {
	var h IntHistogram
	if h.Count(1) != 0 {
		t.Error("zero-value histogram should be empty")
	}
	// Fig 3 data: directions-covered per institution {1:5, 2:1, 3:2, 4:1}.
	obs := []int{1, 1, 1, 1, 1, 2, 3, 3, 4}
	for _, v := range obs {
		h.Observe(v)
	}
	values, counts := h.Buckets(1, 5)
	wantCounts := []int{5, 1, 2, 1, 0}
	for i := range values {
		if counts[i] != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", values[i], counts[i], wantCounts[i])
		}
	}
}

// Property: total observations equal sum of bucket counts over full range.
func TestIntHistogramConservation(t *testing.T) {
	f := func(raw []uint8) bool {
		var h IntHistogram
		for _, v := range raw {
			h.Observe(int(v % 16))
		}
		_, counts := h.Buckets(0, 15)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: shares always sum to ~1 for non-empty distributions, and entropy
// is bounded by log2(k).
func TestDistributionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		cats := make([]string, k)
		for i := range cats {
			cats[i] = string(rune('a' + i))
		}
		d := NewCategoricalDist(cats...)
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			d.Observe(cats[rng.Intn(k)])
		}
		var sum float64
		for _, c := range cats {
			sum += d.Share(c)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("shares sum %v", sum)
		}
		if h := d.Entropy(); h < -1e-12 || h > math.Log2(float64(k))+1e-9 {
			t.Fatalf("entropy %v out of [0, log2(%d)]", h, k)
		}
	}
}
