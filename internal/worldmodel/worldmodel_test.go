package worldmodel

import (
	"math"
	"testing"
)

func TestTableInterpolation(t *testing.T) {
	tb := Table{Xs: []float64{0, 1, 3}, Ys: []float64{10, 20, 0}}
	cases := []struct{ x, want float64 }{
		{-5, 10},  // clamp low
		{0, 10},   // endpoint
		{0.5, 15}, // interpolate
		{1, 20},
		{2, 10}, // halfway down
		{99, 0}, // clamp high
	}
	for _, c := range cases {
		if got := tb.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestModelValidate(t *testing.T) {
	m := Demo()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := *m
	broken.Stocks = nil
	if err := broken.Validate(); err == nil {
		t.Error("no stocks accepted")
	}
	broken2 := *m
	broken2.Derivative = nil
	if err := broken2.Validate(); err == nil {
		t.Error("nil derivative accepted")
	}
	broken3 := *m
	broken3.Initial = State{"population": 1}
	if err := broken3.Validate(); err == nil {
		t.Error("missing initials accepted")
	}
}

func TestRunGrid(t *testing.T) {
	m := Demo()
	tr, err := m.Run(1900, 2100, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != 401 || len(tr.States) != 401 {
		t.Fatalf("trajectory length %d", len(tr.Times))
	}
	if tr.Times[0] != 1900 || tr.Times[400] != 2100 {
		t.Errorf("time endpoints %v..%v", tr.Times[0], tr.Times[400])
	}
	if _, err := m.Run(2000, 1900, 1, nil); err == nil {
		t.Error("reversed horizon accepted")
	}
	if _, err := m.Run(1900, 2000, 0, nil); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := m.Run(1900, 2000, 1, map[string]float64{"warp_drive": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
}

// The World2 qualitative behaviour: business-as-usual overshoots and
// declines — population peaks and then falls as resources deplete.
func TestOvershootAndDecline(t *testing.T) {
	m := Demo()
	tr, err := m.Run(0, 400, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop := tr.Series("population")
	res := tr.Series("resources")
	// Resources must decline monotonically (they are only consumed).
	for i := 1; i < len(res); i++ {
		if res[i] > res[i-1]+1e-12 {
			t.Fatalf("resources grew at step %d", i)
		}
	}
	// Population grows substantially, peaks, then declines significantly.
	peak, peakIdx := 0.0, 0
	for i, p := range pop {
		if p > peak {
			peak, peakIdx = p, i
		}
	}
	if peak < 1.5*pop[0] {
		t.Errorf("no growth phase: peak %v vs initial %v", peak, pop[0])
	}
	if peakIdx == len(pop)-1 {
		t.Error("population never peaked within the horizon")
	}
	final := pop[len(pop)-1]
	if final > peak*0.9 {
		t.Errorf("no decline: final %v vs peak %v", final, peak)
	}
}

// Scenario analysis: halving the depletion rate must postpone/soften the
// decline (higher final population than business-as-usual).
func TestScenarioComparison(t *testing.T) {
	m := Demo()
	bau, err := m.Run(0, 400, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	green, err := m.Run(0, 400, 0.25, map[string]float64{"depletion_rate": 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if green.Final()["population"] <= bau.Final()["population"] {
		t.Errorf("conservation scenario final pop %v not above BAU %v",
			green.Final()["population"], bau.Final()["population"])
	}
	// Note: final *resources* can legitimately be lower in the green
	// scenario — a sustained (non-crashing) economy keeps consuming, while
	// a BAU crash freezes whatever remained. The robust welfare comparison
	// is population, checked above, plus the peak comparison below.
	peak := func(tr *Trajectory) float64 {
		m := 0.0
		for _, p := range tr.Series("population") {
			if p > m {
				m = p
			}
		}
		return m
	}
	if peak(green) < peak(bau) {
		t.Errorf("conservation peak %v below BAU peak %v", peak(green), peak(bau))
	}
}

func TestSensitivity(t *testing.T) {
	m := Demo()
	// +10% initial resources must not hurt the long-run population.
	s, err := m.Sensitivity("resources", "population", 0.1, 0, 300, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 {
		t.Errorf("more resources decreased population: %v", s)
	}
	if _, err := m.Sensitivity("ghost", "population", 0.1, 0, 10, 1); err == nil {
		t.Error("unknown stock accepted")
	}
}

func TestStocksStayNonNegative(t *testing.T) {
	m := Demo()
	tr, err := m.Run(0, 1000, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.States {
		for _, stock := range m.Stocks {
			if s[stock] < 0 {
				t.Fatalf("stock %s negative at step %d: %v", stock, i, s[stock])
			}
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	m := Demo()
	a, _ := m.Run(0, 200, 0.25, nil)
	b, _ := m.Run(0, 200, 0.25, nil)
	for i := range a.States {
		for _, stock := range m.Stocks {
			if a.States[i][stock] != b.States[i][stock] {
				t.Fatal("non-deterministic integration")
			}
		}
	}
	// The first run must not mutate the model's initial state.
	if m.Initial["population"] != 1 {
		t.Error("Run mutated Initial")
	}
}
