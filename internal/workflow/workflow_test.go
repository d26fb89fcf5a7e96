package workflow

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic fan-out/fan-in DAG: a → (b, c) → d.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	w.MustAdd(Step{ID: "a", WorkGFlop: 10, OutputBytes: 100})
	w.MustAdd(Step{ID: "b", After: []string{"a"}, WorkGFlop: 20})
	w.MustAdd(Step{ID: "c", After: []string{"a"}, WorkGFlop: 30})
	w.MustAdd(Step{ID: "d", After: []string{"b", "c"}, WorkGFlop: 5})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAddErrors(t *testing.T) {
	w := New("t")
	if err := w.Add(Step{}); err == nil {
		t.Error("empty ID accepted")
	}
	w.MustAdd(Step{ID: "a"})
	if err := w.Add(Step{ID: "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := w.Add(Step{ID: "neg", WorkGFlop: -1}); err == nil {
		t.Error("negative work accepted")
	}
	// Cores default to 1.
	s, _ := w.Step("a")
	if s.Cores != 1 {
		t.Errorf("default cores = %d", s.Cores)
	}
}

func TestValidateCatchesCycles(t *testing.T) {
	w := New("cycle")
	w.MustAdd(Step{ID: "a", After: []string{"b"}})
	w.MustAdd(Step{ID: "b", After: []string{"a"}})
	if err := w.Validate(); err == nil {
		t.Error("cycle accepted")
	}

	w2 := New("self")
	w2.MustAdd(Step{ID: "a", After: []string{"a"}})
	if err := w2.Validate(); err == nil {
		t.Error("self-dependency accepted")
	}

	w3 := New("dangling")
	w3.MustAdd(Step{ID: "a", After: []string{"ghost"}})
	if err := w3.Validate(); err == nil {
		t.Error("dangling dependency accepted")
	}

	w4 := New("dup-dep")
	w4.MustAdd(Step{ID: "a"})
	w4.MustAdd(Step{ID: "b", After: []string{"a", "a"}})
	if err := w4.Validate(); err == nil {
		t.Error("duplicate dependency accepted")
	}

	if err := New("empty").Validate(); err == nil {
		t.Error("empty workflow accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	w := diamond(t)
	topo, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	if pos["a"] >= pos["b"] || pos["a"] >= pos["c"] || pos["b"] >= pos["d"] || pos["c"] >= pos["d"] {
		t.Errorf("topo order violated: %v", topo)
	}
	// Deterministic: b before c (lexicographic tie-break).
	if pos["b"] >= pos["c"] {
		t.Errorf("tie-break not lexicographic: %v", topo)
	}
}

func TestLevels(t *testing.T) {
	w := diamond(t)
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if len(levels[0]) != 1 || levels[0][0] != "a" {
		t.Errorf("level 0 = %v", levels[0])
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v", levels[1])
	}
	mp, err := w.MaxParallelism()
	if err != nil || mp != 2 {
		t.Errorf("max parallelism = %d, %v", mp, err)
	}
}

func TestDependents(t *testing.T) {
	w := diamond(t)
	deps := w.Dependents("a")
	if len(deps) != 2 || deps[0] != "b" || deps[1] != "c" {
		t.Errorf("dependents(a) = %v", deps)
	}
	if got := w.Dependents("d"); len(got) != 0 {
		t.Errorf("dependents(d) = %v", got)
	}
}

func TestTotalWork(t *testing.T) {
	if got := diamond(t).TotalWork(); got != 65 {
		t.Errorf("total work = %v, want 65", got)
	}
}

// Property: random DAGs (edges only from lower to higher index) always
// validate, and the topological order respects every edge.
func TestRandomDAGsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		w := New("rand")
		for i := 0; i < n; i++ {
			var after []string
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.25 {
					after = append(after, fmt.Sprintf("s%03d", j))
				}
			}
			w.MustAdd(Step{ID: fmt.Sprintf("s%03d", i), After: after, WorkGFlop: rng.Float64() * 10})
		}
		if err := w.Validate(); err != nil {
			return false
		}
		topo, err := w.TopoOrder()
		if err != nil || len(topo) != n {
			return false
		}
		pos := map[string]int{}
		for i, id := range topo {
			pos[id] = i
		}
		for _, s := range w.Steps() {
			for _, dep := range s.After {
				if pos[dep] >= pos[s.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every step appears in exactly one level, and each step's level
// exceeds all its dependencies' levels.
func TestLevelsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		w := New("rand")
		for i := 0; i < n; i++ {
			var after []string
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.3 {
					after = append(after, fmt.Sprintf("s%03d", j))
				}
			}
			w.MustAdd(Step{ID: fmt.Sprintf("s%03d", i), After: after})
		}
		levels, err := w.Levels()
		if err != nil {
			return false
		}
		at := map[string]int{}
		count := 0
		for li, l := range levels {
			for _, id := range l {
				if _, dup := at[id]; dup {
					return false
				}
				at[id] = li
				count++
			}
		}
		if count != n {
			return false
		}
		for _, s := range w.Steps() {
			for _, dep := range s.After {
				if at[dep] >= at[s.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
