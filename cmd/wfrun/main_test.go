package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
)

func TestDemoRun(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-demo"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"hybrid-analytics", "heft", "makespan", "train"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestDemoCompare(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-demo", "-compare"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, pol := range []string{"random", "round-robin", "data-local", "cost-aware", "energy-aware", "heft"} {
		if !strings.Contains(out, pol) {
			t.Errorf("comparison missing policy %q", pol)
		}
	}
}

func TestPolicyOverride(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-demo", "-policy", "round-robin"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "round-robin") {
		t.Error("policy override ignored")
	}
	if err := run([]string{"-demo", "-policy", "psychic"}, &sb); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBlueprintFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bp.json")
	js := `{"name":"file-app","components":[{"name":"only","type":"job","gflop":10}]}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-blueprint", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "file-app") {
		t.Error("blueprint file not used")
	}
}

func TestMissingInput(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no input accepted")
	}
	if err := run([]string{"-blueprint", "/nope.json"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
}

// readGolden loads a testdata golden file.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDemoGolden pins the full -demo schedule output byte for byte: the
// simulation reads no wall clock, so the bytes are machine-independent.
func TestDemoGolden(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-demo"}, &sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), readGolden(t, "demo.golden"); got != want {
		t.Errorf("-demo output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExecGolden pins the end-to-end memoized execution lifecycle under
// clock.Sim: cold build, warm rebuild (all hits, zero simulated seconds),
// mid-run fault, and a re-run that executes only the incomplete steps.
func TestExecGolden(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	capture := func(wantErr bool, args ...string) string {
		t.Helper()
		var sb strings.Builder
		err := run(args, &sb)
		if wantErr && err == nil {
			t.Fatalf("run(%v): expected error", args)
		}
		if !wantErr && err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return sb.String()
	}

	cold := capture(false, "-demo", "-store", store, "-cache-stats")
	if want := readGolden(t, "exec_cold.golden"); cold != want {
		t.Errorf("cold exec drifted:\n--- got ---\n%s--- want ---\n%s", cold, want)
	}
	warm := capture(false, "-demo", "-store", store, "-cache-stats")
	if want := readGolden(t, "exec_warm.golden"); warm != want {
		t.Errorf("warm exec drifted:\n--- got ---\n%s--- want ---\n%s", warm, want)
	}

	// Fresh store: fault at train, then re-run.
	store2 := filepath.Join(t.TempDir(), "store2")
	fail := capture(true, "-demo", "-store", store2, "-fail-step", "train", "-cache-stats")
	if want := readGolden(t, "exec_fail.golden"); fail != want {
		t.Errorf("faulted exec drifted:\n--- got ---\n%s--- want ---\n%s", fail, want)
	}
	res := capture(false, "-demo", "-store", store2, "-cache-stats")
	if want := readGolden(t, "exec_resume.golden"); res != want {
		t.Errorf("re-run after the fault drifted:\n--- got ---\n%s--- want ---\n%s", res, want)
	}
}

// TestExecDiamondDeterministic executes a blueprint whose four middle steps
// are independent of each other (ingest → a, b, c, d → join), each run in a
// fresh store. Every run must print the same bytes and write the same
// journal, with the steps in topological order; a fault at b must stop the
// run at b every time, and a re-run over the same store must execute
// exactly the steps the fault left undone.
func TestExecDiamondDeterministic(t *testing.T) {
	const runs = 20
	blueprint := filepath.Join("testdata", "diamond.json")
	type outcome struct{ stdout, journal string }
	exec := func(store string, wantErr bool, extra ...string) outcome {
		t.Helper()
		var sb strings.Builder
		args := append([]string{"-blueprint", blueprint, "-store", store}, extra...)
		if err := run(args, &sb); (err != nil) != wantErr {
			t.Fatalf("run(%v): err = %v, want error %v", args, err, wantErr)
		}
		journal, err := os.ReadFile(filepath.Join(store, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return outcome{sb.String(), string(journal)}
	}
	// check asserts each step's printed status and the journal's steps,
	// in order, with their statuses.
	check := func(name string, got outcome, status []string, journal []string) {
		t.Helper()
		for i, id := range []string{"ingest", "a", "b", "c", "d", "join"} {
			if line := fmt.Sprintf("\n%-12s %-8s ", id, status[i]); !strings.Contains(got.stdout, line) {
				t.Errorf("%s: step %s is not %s:\n%s", name, id, status[i], got.stdout)
			}
		}
		entries, err := cas.ReadJournal(strings.NewReader(got.journal))
		if err != nil {
			t.Fatal(err)
		}
		var steps []string
		for _, e := range entries {
			steps = append(steps, e.Step+":"+string(e.Status))
		}
		if fmt.Sprint(steps) != fmt.Sprint(journal) {
			t.Errorf("%s: journal steps %v, want %v", name, steps, journal)
		}
	}
	same := func(name string, first, got outcome, i int) {
		t.Helper()
		if got != first {
			t.Fatalf("%s run %d differs from the first run:\n%s%s--- first run ---\n%s%s",
				name, i, got.stdout, got.journal, first.stdout, first.journal)
		}
	}

	var clean, failed, resumed outcome
	for i := 0; i < runs; i++ {
		got := exec(filepath.Join(t.TempDir(), "store"), false)
		if i == 0 {
			clean = got
			check("clean", got, []string{"exec", "exec", "exec", "exec", "exec", "exec"},
				[]string{"ingest:exec", "a:exec", "b:exec", "c:exec", "d:exec", "join:exec"})
		}
		same("clean", clean, got, i)
	}
	for i := 0; i < runs; i++ {
		store := filepath.Join(t.TempDir(), "store")
		got := exec(store, true, "-fail-step", "b")
		if i == 0 {
			failed = got
			check("fail-step b", got, []string{"exec", "exec", "fail", "skip", "skip", "skip"},
				[]string{"ingest:exec", "a:exec"})
		}
		same("fail-step b", failed, got, i)

		got = exec(store, false)
		if i == 0 {
			resumed = got
			check("re-run", got, []string{"hit", "hit", "exec", "exec", "exec", "exec"},
				[]string{"ingest:exec", "a:exec", "ingest:hit", "a:hit", "b:exec", "c:exec", "d:exec", "join:exec"})
			if !strings.Contains(got.stdout, "| executed 4 | cached 2 | skipped 0") {
				t.Errorf("re-run did not execute exactly b, c, d and join:\n%s", got.stdout)
			}
			// Each execution is its own run: the faulted one is run 1 and
			// the re-run run 2, so no two entries share a run and a seq.
			entries, err := cas.ReadJournal(strings.NewReader(got.journal))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range entries {
				id := fmt.Sprintf("run %s seq %d", e.Run, e.Seq)
				if seen[id] {
					t.Errorf("two journal entries share %s:\n%s", id, got.journal)
				}
				seen[id] = true
			}
			if first, last := entries[0], entries[len(entries)-1]; first.Run != "1" || last.Run != "2" {
				t.Errorf("journal runs %q to %q, want 1 to 2:\n%s", first.Run, last.Run, got.journal)
			}
		}
		same("re-run", resumed, got, i)
	}
}

// A re-run after a fault serves no stale step: when the blueprint changes
// between the faulted run and the re-run, the steps whose inputs changed
// execute again, and every key equals the one a fresh store computes.
func TestExecRerunAfterEdit(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "diamond.json"))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(orig), `"name": "a", "type": "job", "gflop": 100`, `"name": "a", "type": "job", "gflop": 150`, 1)
	if edited == string(orig) {
		t.Fatal("diamond.json no longer has step a at 100 gflop")
	}
	dir := t.TempDir()
	bp := filepath.Join(dir, "diamond.json")
	if err := os.WriteFile(bp, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	// lastRun runs args and returns the journal entries of the store's last
	// run, by step.
	lastRun := func(store string, wantErr bool, args ...string) map[string]cas.Entry {
		t.Helper()
		var sb strings.Builder
		if err := run(args, &sb); (err != nil) != wantErr {
			t.Fatalf("run(%v): err = %v, want error %v", args, err, wantErr)
		}
		f, err := os.Open(filepath.Join(store, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		entries, err := cas.ReadJournal(f)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]cas.Entry{}
		for _, e := range entries {
			if e.Run == entries[len(entries)-1].Run {
				out[e.Step] = e
			}
		}
		return out
	}

	store := filepath.Join(dir, "store")
	lastRun(store, true, "-blueprint", filepath.Join("testdata", "diamond.json"), "-store", store, "-fail-step", "b")
	rerun := lastRun(store, false, "-blueprint", bp, "-store", store)
	fresh := filepath.Join(dir, "fresh")
	want := lastRun(fresh, false, "-blueprint", bp, "-store", fresh)

	if rerun["ingest"].Status != cas.StatusHit || rerun["a"].Status != cas.StatusExecuted {
		t.Errorf("re-run: ingest %s and a %s, want the unchanged ingest a hit and the edited a executed",
			rerun["ingest"].Status, rerun["a"].Status)
	}
	for _, id := range []string{"ingest", "a", "b", "c", "d", "join"} {
		if rerun[id].Key != want[id].Key {
			t.Errorf("step %s: re-run key %s, fresh store key %s", id, rerun[id].Key, want[id].Key)
		}
	}
}

// TestExecFlagValidation covers the flag dependency rules.
func TestExecFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-demo", "-fail-step", "train"}, &sb); err == nil {
		t.Error("-fail-step without -store accepted")
	}
	if err := run([]string{"-demo", "-cache-stats"}, &sb); err == nil {
		t.Error("-cache-stats without -store accepted")
	}
	if err := run([]string{"-demo", "-store", t.TempDir(), "-compare"}, &sb); err == nil {
		t.Error("-store with -compare accepted")
	}
}

// The profiling flags must leave valid, non-empty pprof files behind.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run([]string{"-demo", "-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
