package workflow

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
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

// refTopoOrder and refDependents are the direct definitions the derived
// graph must reproduce: a Dependents scan over every step, and Kahn's
// algorithm re-sorting the ready list after each unlock.
func refDependents(w *Workflow, id string) []string {
	var out []string
	for _, s := range w.Steps() {
		for _, dep := range s.After {
			if dep == id {
				out = append(out, s.ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func refTopoOrder(w *Workflow) ([]string, error) {
	indeg := map[string]int{}
	var ready []string
	for _, s := range w.Steps() {
		indeg[s.ID] = len(s.After)
		if indeg[s.ID] == 0 {
			ready = append(ready, s.ID)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, dep := range refDependents(w, id) {
			if indeg[dep]--; indeg[dep] == 0 {
				ready = append(ready, dep)
				sort.Strings(ready)
			}
		}
	}
	if len(out) != w.Len() {
		return nil, ErrCycle
	}
	return out, nil
}

// randomGraph draws a graph that may be invalid: back edges (cycles),
// self edges, dangling and duplicate dependencies, and IDs whose order
// differs from insertion order.
func randomGraph(rng *rand.Rand) *Workflow {
	n := 1 + rng.Intn(12)
	name := rng.Perm(n)
	w := New("rand")
	for i := 0; i < n; i++ {
		var after []string
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 && (j < i || rng.Float64() < 0.1) {
				after = append(after, fmt.Sprintf("s%02d", name[j]))
			}
		}
		if rng.Float64() < 0.05 {
			after = append(after, "ghost")
		}
		if len(after) > 0 && rng.Float64() < 0.05 {
			after = append(after, after[0])
		}
		w.MustAdd(Step{ID: fmt.Sprintf("s%02d", name[i]), After: after})
	}
	return w
}

// Property: on valid and invalid graphs alike, the derived order,
// dependents and cycle verdict equal the direct definitions.
func TestDerivedGraphMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		w := randomGraph(rng)
		got, gotErr := w.TopoOrder()
		want, wantErr := refTopoOrder(w)
		if !slices.Equal(got, want) || gotErr != wantErr {
			t.Fatalf("trial %d: order %v (%v), want %v (%v)", trial, got, gotErr, want, wantErr)
		}
		for _, id := range append(slices.Clone(got), "ghost", "s00") {
			if g, r := w.Dependents(id), refDependents(w, id); !slices.Equal(g, r) {
				t.Fatalf("trial %d: dependents(%s) = %v, want %v", trial, id, g, r)
			}
		}
		if err := w.Validate(); (err == nil) != (wantErr == nil && validDeps(w)) {
			t.Fatalf("trial %d: validate = %v", trial, err)
		}
	}
}

func validDeps(w *Workflow) bool {
	for _, s := range w.Steps() {
		for k, dep := range s.After {
			if _, err := w.Step(dep); err != nil || dep == s.ID || slices.Contains(s.After[:k], dep) {
				return false
			}
		}
	}
	return true
}

// An Add after the order was derived re-derives it: the new step joins the
// order, its dependencies list it, and a dangling name fails validation.
func TestAddRederivesOrder(t *testing.T) {
	w := diamond(t)
	if topo, _ := w.TopoOrder(); !slices.Equal(topo, []string{"a", "b", "c", "d"}) {
		t.Fatalf("order = %v", topo)
	}
	w.MustAdd(Step{ID: "0", After: []string{}})
	w.MustAdd(Step{ID: "e", After: []string{"d", "0"}})
	topo, err := w.TopoOrder()
	if err != nil || !slices.Equal(topo, []string{"0", "a", "b", "c", "d", "e"}) {
		t.Fatalf("order after Add = %v, %v", topo, err)
	}
	if deps := w.Dependents("d"); !slices.Equal(deps, []string{"e"}) {
		t.Fatalf("dependents(d) after Add = %v", deps)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	w.MustAdd(Step{ID: "f", After: []string{"ghost"}})
	if err := w.Validate(); err == nil {
		t.Fatal("dangling dependency added after Validate was accepted")
	}
	if _, err := w.TopoOrder(); err != ErrCycle {
		t.Fatalf("order with a dangling dependency: %v", err)
	}
}

// Concurrent readers of one workflow share its derived graph; run under
// -race, this checks the first build is published safely.
func TestConcurrentReaders(t *testing.T) {
	want := benchDAG(300)
	wantTopo, _ := want.TopoOrder()
	w := benchDAG(300)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("s%04d", (i*31+g)%300)
				switch (i + g) % 3 {
				case 0:
					if topo, err := w.TopoOrder(); err != nil || !slices.Equal(topo, wantTopo) {
						errs <- fmt.Sprintf("goroutine %d: order differs (%v)", g, err)
						return
					}
				case 1:
					if got := w.Dependents(id); !slices.Equal(got, want.Dependents(id)) {
						errs <- fmt.Sprintf("goroutine %d: dependents(%s) = %v", g, id, got)
						return
					}
				default:
					if err := w.Validate(); err != nil {
						errs <- fmt.Sprintf("goroutine %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
