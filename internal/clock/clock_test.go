package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSimStartsAtEpochAndAdvances(t *testing.T) {
	s := NewSim(1)
	if !s.Now().Equal(Epoch) {
		t.Errorf("new sim at %v, want Epoch %v", s.Now(), Epoch)
	}
	s.Advance(1500 * time.Millisecond)
	if got := s.Now().Sub(Epoch); got != 1500*time.Millisecond {
		t.Errorf("advanced by %v", got)
	}
	start := s.Now()
	s.Sleep(2 * time.Second)
	if got := s.Since(start); got != 2*time.Second {
		t.Errorf("Since after Sleep = %v", got)
	}
}

func TestSimSleepNonPositiveIsNoop(t *testing.T) {
	s := NewSim(1)
	s.Sleep(0)
	s.Sleep(-time.Second)
	if !s.Now().Equal(Epoch) {
		t.Errorf("non-positive sleep moved the clock to %v", s.Now())
	}
}

func TestSimNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative advance did not panic")
		}
	}()
	NewSim(1).Advance(-time.Second)
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, sec := range []float64{0, 0.001, 1, 3600.5} {
		if got := Seconds(FromSeconds(sec)); got != sec {
			t.Errorf("Seconds(FromSeconds(%v)) = %v", sec, got)
		}
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != System {
		t.Error("Or(nil) != System")
	}
	s := NewSim(1)
	if Or(s) != Clock(s) {
		t.Error("Or(sim) != sim")
	}
}

// WorkDuration depends only on (seed, key): stable across calls, different
// across keys and seeds, always inside [0, max).
func TestWorkDurationDeterministic(t *testing.T) {
	a, b := NewSim(7), NewSim(7)
	a.SetJitter(time.Second)
	b.SetJitter(time.Second)
	for _, key := range []string{"ingest", "train", "publish"} {
		d1, d2 := a.WorkDuration(key), b.WorkDuration(key)
		if d1 != d2 {
			t.Errorf("key %q: %v vs %v across same-seed sims", key, d1, d2)
		}
		if d1 < 0 || d1 >= time.Second {
			t.Errorf("key %q: %v out of [0, 1s)", key, d1)
		}
		if d1 != a.WorkDuration(key) {
			t.Errorf("key %q: unstable across calls", key)
		}
	}
	if a.WorkDuration("ingest") == a.WorkDuration("train") {
		t.Error("distinct keys collided (suspicious for a 64-bit hash)")
	}
	other := NewSim(8)
	other.SetJitter(time.Second)
	if other.WorkDuration("ingest") == a.WorkDuration("ingest") {
		t.Error("distinct seeds produced identical jitter")
	}
}

func TestWorkDurationZeroWithoutJitter(t *testing.T) {
	if d := NewSim(1).WorkDuration("any"); d != 0 {
		t.Errorf("jitter disabled but WorkDuration = %v", d)
	}
}

func TestSimConcurrentUse(t *testing.T) {
	s := NewSim(1)
	s.SetJitter(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Advance(time.Microsecond)
				_ = s.Now()
				_ = s.WorkDuration("k")
				_ = s.Since(Epoch)
			}
		}()
	}
	wg.Wait()
	if got := s.Now().Sub(Epoch); got != 4000*time.Microsecond {
		t.Errorf("concurrent advances lost: %v", got)
	}
}

func TestRealClockMovesForward(t *testing.T) {
	c := Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Error("real clock did not move")
	}
}

// WorkDuration's jitter is a pure function of (seed, key): pin a few values
// under a one-second jitter bound.
func TestWorkDurationPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		key  string
		want time.Duration
	}{
		{1, "", 679211815},
		{1, "train", 860991764},
		{-7, "ingest", 378869459},
	} {
		s := NewSim(c.seed)
		s.SetJitter(time.Second)
		if got := s.WorkDuration(c.key); got != c.want {
			t.Errorf("NewSim(%d).WorkDuration(%q) = %d, want %d", c.seed, c.key, got, c.want)
		}
	}
}
