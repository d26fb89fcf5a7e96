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

func TestSimConcurrentUse(t *testing.T) {
	s := NewSim(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Advance(time.Microsecond)
				_ = s.Now()
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
