package cas

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// memoizeRace starts n concurrent Memoize calls on one key of a fresh
// store, holds the first compute until another caller waits on its claim,
// and returns each call's outcome and the number of computes that ran.
// failFirst makes the first compute fail.
func memoizeRace(t *testing.T, n int, failFirst bool) ([]Memoized, []error, []string, int64) {
	t.Helper()
	st := NewMemStore()
	key := KeyOf([]byte("coalesce"))
	var computes atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	out, errs, vals := make([]Memoized, n), make([]error, n), make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = Memoize(st, key, &vals[i], func() (string, error) {
				if computes.Add(1) == 1 {
					close(started)
					<-release
					if failFirst {
						return "", errors.New("first compute failed")
					}
				}
				return "value", nil
			})
		}(i)
	}
	<-started
	for waiting := false; !waiting; runtime.Gosched() {
		claims.Lock()
		waiting = claims.m[claimKey{st, key}] != nil
		claims.Unlock()
	}
	close(release)
	wg.Wait()
	return out, errs, vals, computes.Load()
}

// Concurrent misses on one key run compute once; every other caller
// recalls the stored value as a hit.
func TestMemoizeCoalescesConcurrentMisses(t *testing.T) {
	const n = 8
	out, errs, vals, computes := memoizeRace(t, n, false)
	if computes != 1 {
		t.Fatalf("%d computes for one key, want 1", computes)
	}
	hits := 0
	for i := range out {
		if errs[i] != nil || vals[i] != "value" {
			t.Fatalf("call %d: %q, %v", i, vals[i], errs[i])
		}
		if out[i].Hit {
			hits++
		}
	}
	if hits != n-1 {
		t.Fatalf("%d hits, want %d", hits, n-1)
	}
	if len(claims.m) != 0 {
		t.Fatalf("claims left behind: %v", claims.m)
	}
}

// A failed compute fails only its own caller: a waiter claims the key and
// computes, and the rest hit its value.
func TestMemoizeFailedComputeLetsWaiterCompute(t *testing.T) {
	const n = 8
	out, errs, vals, computes := memoizeRace(t, n, true)
	if computes != 2 {
		t.Fatalf("%d computes, want the failed one and one retry", computes)
	}
	failed, hits := 0, 0
	for i := range out {
		switch {
		case errs[i] != nil:
			failed++
		case vals[i] != "value":
			t.Fatalf("call %d got %q", i, vals[i])
		case out[i].Hit:
			hits++
		}
	}
	if failed != 1 || hits != n-2 {
		t.Fatalf("%d failed and %d hits, want 1 and %d", failed, hits, n-2)
	}
	if len(claims.m) != 0 {
		t.Fatalf("claims left behind: %v", claims.m)
	}
}
