package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumKahanStability(t *testing.T) {
	// 1e8 + many tiny values: naive summation loses the tiny values,
	// Kahan keeps them.
	xs := make([]float64, 1001)
	xs[0] = 1e8
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-8
	}
	got := Sum(xs)
	want := 1e8 + 1000e-8
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("Sum = %.15g, want %.15g", got, want)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestMinMaxErrors(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	min, err := Min([]float64{3, -1, 2})
	if err != nil || min != -1 {
		t.Errorf("Min = %v, %v", min, err)
	}
	max, err := Max([]float64{3, -1, 2})
	if err != nil || max != 3 {
		t.Errorf("Max = %v, %v", max, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	med, err := Median(xs)
	if err != nil || med != 35 {
		t.Errorf("Median = %v, %v; want 35", med, err)
	}
	p0, _ := Percentile(xs, 0)
	p100, _ := Percentile(xs, 100)
	if p0 != 15 || p100 != 50 {
		t.Errorf("P0=%v P100=%v, want 15 and 50", p0, p100)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	// Interpolation: p=25 over 5 sorted values is rank 1 → 20.
	p25, _ := Percentile(xs, 25)
	if p25 != 20 {
		t.Errorf("P25 = %v, want 20", p25)
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	_, _ = Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("Percentile mutated input: %v", ys)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

// Property: mean is always within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and shift-invariant.
func TestVarianceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		shift := rng.Float64()*100 - 50
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i] + shift
		}
		vx, vy := Variance(xs), Variance(ys)
		if vx < 0 {
			t.Fatalf("negative variance %v", vx)
		}
		if !almostEqual(vx, vy, 1e-6*(1+math.Abs(vx))) {
			t.Fatalf("variance not shift-invariant: %v vs %v", vx, vy)
		}
	}
}
