package serve

import "testing"

func TestCostModelDeterministic(t *testing.T) {
	run := func() []float64 {
		m := NewCostModel(42, 4, 0.025)
		var lats []float64
		now := 0.0
		for i := 0; i < 5000; i++ {
			ep := endpoints[i%len(endpoints)]
			lat, ok := m.Admit(ep, "/experiments/key", now)
			if ok {
				lats = append(lats, lat)
			} else {
				lats = append(lats, -1)
			}
			now += 100e-6
		}
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs across identical replays: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCostModelServiceTimeBounds(t *testing.T) {
	m := NewCostModel(7, 64, 1)
	base := baseCostS["status"]
	for i := 0; i < 1000; i++ {
		// 64 idle virtual workers at generous spacing: latency == service time.
		lat, ok := m.Admit("status", string(rune('a'+i%26))+string(rune(i)), float64(i))
		if !ok {
			t.Fatalf("idle model rejected request %d", i)
		}
		if lat < 0.5*base || lat >= 1.5*base {
			t.Fatalf("service time %v outside ±50%% of base %v", lat, base)
		}
	}
}

func TestCostModelRejectsWhenSaturated(t *testing.T) {
	m := NewCostModel(1, 1, 0.001)
	// Hammer one virtual worker at t=0: the backlog exceeds the 1ms bound
	// quickly and subsequent arrivals are rejected without model updates.
	rejected := 0
	for i := 0; i < 100; i++ {
		if _, ok := m.Admit("submit", "k", 0); !ok {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("saturated model never rejected")
	}
	free := m.free[0]
	if _, ok := m.Admit("submit", "k", 0); ok {
		t.Fatal("still admitting past the bound")
	}
	if m.free[0] != free {
		t.Fatal("rejected request mutated the model")
	}
	// Arriving after the backlog clears is admitted again.
	if _, ok := m.Admit("submit", "k", free+1); !ok {
		t.Fatal("idle model rejected after backlog cleared")
	}
}

func TestCostModelSeedChangesStream(t *testing.T) {
	a := NewCostModel(1, 8, 1)
	b := NewCostModel(2, 8, 1)
	la, _ := a.Admit("status", "/x", 0)
	lb, _ := b.Admit("status", "/x", 0)
	if la == lb {
		t.Fatal("distinct seeds produced identical service times")
	}
}

// hash01 draws every modelled service time: pin a few values.
func TestHash01Pinned(t *testing.T) {
	for _, c := range []struct {
		seed          int64
		endpoint, key string
		want          float64
	}{
		{0, "", "", 0.01080716836904605},
		{42, "status", "/experiments/key", 0.9701004139738534},
		{-1, "artifact", "a|b", 0.21256004882828838},
	} {
		m := NewCostModel(c.seed, 1, 1)
		if got := m.hash01(c.endpoint, c.key); got != c.want {
			t.Errorf("hash01(%d, %q, %q) = %v, want %v", c.seed, c.endpoint, c.key, got, c.want)
		}
	}
}
