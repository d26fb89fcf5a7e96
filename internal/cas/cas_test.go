package cas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/workflow"
)

// stores returns each backend under test, fresh.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "disk": disk}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte(`{"hello":"world"}`)
			k, err := st.Put(data)
			if err != nil {
				t.Fatal(err)
			}
			if k != KeyOf(data) {
				t.Fatalf("key %s != content hash %s", k, KeyOf(data))
			}
			got, ok, err := st.Get(k)
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip: got %q", got)
			}
			// Dedup: same content again does not grow the store.
			if _, err := st.Put(data); err != nil {
				t.Fatal(err)
			}
			keys, err := st.Keys()
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 1 {
				t.Fatalf("dedup failed: %d objects", len(keys))
			}
			n, err := st.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(data)) {
				t.Fatalf("bytes = %d, want %d", n, len(data))
			}
			if _, ok, _ := st.Get(KeyOf([]byte("absent"))); ok {
				t.Fatal("found absent key")
			}
		})
	}
}

func TestStoreLinks(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := st.Put([]byte("a"))
			b, _ := st.Put([]byte("b"))
			link := KeyOf([]byte("the-name"))
			if err := st.Link(link, a); err != nil {
				t.Fatal(err)
			}
			got, ok, err := st.Resolve(link)
			if err != nil || !ok || got != a {
				t.Fatalf("resolve: %s ok=%v err=%v", got, ok, err)
			}
			// Last write wins.
			if err := st.Link(link, b); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := st.Resolve(link); got != b {
				t.Fatalf("overwrite: got %s want %s", got, b)
			}
			links, err := st.Links()
			if err != nil {
				t.Fatal(err)
			}
			if len(links) != 1 || links[0] != link {
				t.Fatalf("links = %v", links)
			}
			if _, ok, _ := st.Resolve(KeyOf([]byte("other"))); ok {
				t.Fatal("resolved absent link")
			}
		})
	}
}

func TestStoreDeterministicIteration(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				if _, err := st.Put([]byte(fmt.Sprintf("blob-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			first, err := st.Keys()
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				again, err := st.Keys()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatal("iteration order changed between calls")
				}
			}
			for i := 1; i < len(first); i++ {
				if first[i-1] >= first[i] {
					t.Fatalf("keys not sorted at %d", i)
				}
			}
		})
	}
}

func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := st.Put([]byte("persists"))
	link := KeyOf([]byte("name"))
	if err := st.Link(link, k); err != nil {
		t.Fatal(err)
	}
	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st2.Get(k); !ok {
		t.Fatal("object lost across reopen")
	}
	if got, ok, _ := st2.Resolve(link); !ok || got != k {
		t.Fatal("link lost across reopen")
	}
}

// A failed writeAtomic must not leave .tmp-* litter behind: temp files that
// survive failed writes accumulate in the prefix directories and show up in
// (and corrupt the determinism of) directory scans.
func TestWriteAtomicNoTempLitterOnFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("victim"))
	target := st.objectPath(k)
	// Make the rename fail: the destination path is a non-empty directory.
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.writeAtomic(target, []byte("victim")); err == nil {
		t.Fatal("writeAtomic succeeded over a non-empty directory")
	}
	entries, err := os.ReadDir(filepath.Dir(target))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file litter after failed write: %s", e.Name())
		}
	}
}

// A flipped byte in an object file is reported as ErrCorrupt, with no bytes,
// and a Put of the original bytes replaces the file instead of deduping onto
// it, so the next Get returns them.
func TestDiskStoreGetCorrupt(t *testing.T) {
	st, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte(`{"value":"served intact or not at all"}`)
	k, err := st.Put(orig)
	if err != nil {
		t.Fatal(err)
	}
	path := st.objectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(k)
	if !errors.Is(err, ErrCorrupt) || ok || got != nil {
		t.Fatalf("corrupt object: data=%q ok=%v err=%v, want ErrCorrupt and no bytes", got, ok, err)
	}
	if again, err := st.Put(orig); err != nil || again != k {
		t.Fatalf("Put of the original bytes = %s, %v", again, err)
	}
	if got, ok, err := st.Get(k); err != nil || !ok || !bytes.Equal(got, orig) {
		t.Fatalf("after Put: data=%q ok=%v err=%v, want the original bytes", got, ok, err)
	}
}

// Memoize stores one encoding per value: maps built in different orders
// link to one artifact, and a recalled value re-encodes to the same bytes.
func TestEncodeCanonical(t *testing.T) {
	st := NewMemStore()
	memo := func(name string, v any) Memoized {
		t.Helper()
		var got any
		m, err := Memoize(st, KeyOf([]byte(name)), &got, func() (any, error) { return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := memo("a", map[string]any{"z": 1.0, "a": "x", "m": []any{true, nil}})
	b := memo("b", map[string]any{"m": []any{true, nil}, "a": "x", "z": 1.0})
	if a.Target != b.Target {
		t.Fatalf("map key order leaked into encoding: %s vs %s", a.Target, b.Target)
	}
	var v any
	hit, err := Memoize(st, KeyOf([]byte("a")), &v, func() (any, error) {
		t.Fatal("compute ran on a hit")
		return nil, nil
	})
	if err != nil || !hit.Hit {
		t.Fatalf("recall: %+v, %v", hit, err)
	}
	if round := memo("c", v); round.Target != a.Target {
		t.Fatal("encode/decode/encode not stable")
	}
}

// diamond builds the test workflow: a → {b, c} → d.
func diamond() *workflow.Workflow {
	wf := workflow.New("diamond")
	wf.MustAdd(workflow.Step{ID: "a"})
	wf.MustAdd(workflow.Step{ID: "b", After: []string{"a"}})
	wf.MustAdd(workflow.Step{ID: "c", After: []string{"a"}})
	wf.MustAdd(workflow.Step{ID: "d", After: []string{"b", "c"}})
	return wf
}

// countingBodies returns bodies producing deterministic strings, plus the
// shared execution counter.
func countingBodies(executed *atomic.Int64) map[string]workflow.StepFunc {
	mk := func(id string) workflow.StepFunc {
		return func(_ context.Context, deps map[string]any) (any, error) {
			executed.Add(1)
			// Canonical encode keeps the output independent of map
			// iteration order.
			enc, _ := json.Marshal(deps)
			return fmt.Sprintf("out(%s)<-%s", id, enc), nil
		}
	}
	return map[string]workflow.StepFunc{
		"a": mk("a"), "b": mk("b"), "c": mk("c"), "d": mk("d"),
	}
}

func TestMemoColdThenWarm(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var executed atomic.Int64
			wf := diamond()
			bodies := countingBodies(&executed)
			fp := uniform(wf, "v1")
			m := &Memo{Store: st, Clock: clock.NewSim(1)}

			cold, err := m.Run(context.Background(), wf, bodies, fp)
			if err != nil {
				t.Fatal(err)
			}
			if executed.Load() != 4 || cold.Stats.Executed != 4 || cold.Stats.Hits != 0 {
				t.Fatalf("cold: executed=%d stats=%+v", executed.Load(), cold.Stats)
			}

			warm, err := m.Run(context.Background(), wf, bodies, fp)
			if err != nil {
				t.Fatal(err)
			}
			if executed.Load() != 4 {
				t.Fatalf("warm run executed %d bodies", executed.Load()-4)
			}
			if warm.Stats.Hits != 4 || warm.Stats.Executed != 0 {
				t.Fatalf("warm stats: %+v", warm.Stats)
			}
			// Same values, same artifact keys.
			for id := range bodies {
				if !reflect.DeepEqual(cold.Results[id].Value, warm.Results[id].Value) {
					t.Errorf("step %s: cold %v != warm %v", id, cold.Results[id].Value, warm.Results[id].Value)
				}
				if cold.Keys[id] != warm.Keys[id] {
					t.Errorf("step %s: artifact key changed", id)
				}
			}
		})
	}
}

// TestStepKeyStability: identical workflow + inputs yield identical keys
// across runs; any dep-result change flips the key.
func TestStepKeyStability(t *testing.T) {
	keysFor := func(fp string, mutate bool) map[string]Key {
		st := NewMemStore()
		var executed atomic.Int64
		wf := diamond()
		bodies := countingBodies(&executed)
		if mutate {
			bodies["a"] = func(context.Context, map[string]any) (any, error) {
				return "a-changed", nil
			}
		}
		m := &Memo{Store: st, Clock: clock.NewSim(1)}
		out, err := m.Run(context.Background(), wf, bodies, uniform(wf, fp))
		if err != nil {
			t.Fatal(err)
		}
		links, err := st.Links()
		if err != nil {
			t.Fatal(err)
		}
		memo := map[string]Key{}
		for id, k := range out.Keys {
			memo[id] = k
		}
		// Also record the memo-key set: link names are the step keys.
		memo["__links__"] = KeyOf([]byte(fmt.Sprint(links)))
		return memo
	}

	base := keysFor("v1", false)
	if again := keysFor("v1", false); !reflect.DeepEqual(base, again) {
		t.Fatalf("keys differ across runs:\n%v\nvs\n%v", base, again)
	}

	// A changed dependency result must flip every downstream key.
	changed := keysFor("v1", true)
	for _, id := range []string{"a", "b", "c", "d"} {
		if changed[id] == base[id] {
			t.Errorf("step %s: key unchanged after upstream result change", id)
		}
	}
	if changed["__links__"] == base["__links__"] {
		t.Error("memo link set unchanged after upstream result change")
	}

	// A changed body fingerprint must flip keys even with identical results.
	refp := keysFor("v2", false)
	if refp["__links__"] == base["__links__"] {
		t.Error("memo link set unchanged after fingerprint change")
	}
	// Artifact keys (content hashes) are identical — same outputs...
	for _, id := range []string{"a", "b", "c", "d"} {
		if refp[id] != base[id] {
			t.Errorf("step %s: artifact key changed though content identical", id)
		}
	}
}

func TestStepKeyNoConcatenationCollision(t *testing.T) {
	// Length prefixing: ("ab","c") must not collide with ("a","bc").
	if StepKey("w", "ab", "c", nil) == StepKey("w", "a", "bc", nil) {
		t.Fatal("field boundary collision")
	}
	a := StepKey("w", "s", "", map[string]Key{"x": "11", "y": "22"})
	b := StepKey("w", "s", "", map[string]Key{"x": "1", "y": "122"})
	if a == b {
		t.Fatal("dep map collision")
	}
	// Dep order independence.
	d1 := map[string]Key{"p": "aa", "q": "bb"}
	d2 := map[string]Key{"q": "bb", "p": "aa"}
	if StepKey("w", "s", "f", d1) != StepKey("w", "s", "f", d2) {
		t.Fatal("dep iteration order leaked into key")
	}
}

// chain builds the linear workflow a → b → c → d.
func chain() *workflow.Workflow {
	wf := workflow.New("chain")
	wf.MustAdd(workflow.Step{ID: "a"})
	wf.MustAdd(workflow.Step{ID: "b", After: []string{"a"}})
	wf.MustAdd(workflow.Step{ID: "c", After: []string{"b"}})
	wf.MustAdd(workflow.Step{ID: "d", After: []string{"c"}})
	return wf
}

// TestFaultResume is the acceptance-criterion test: a fault mid-run, then a
// plain re-run over the reopened store that re-executes only the steps that
// had not completed. The journal records both runs.
func TestFaultResume(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wf := chain()
	var executed atomic.Int64
	bodies := countingBodies(&executed)
	boom := errors.New("injected fault")
	realC := bodies["c"]
	bodies["c"] = func(ctx context.Context, deps map[string]any) (any, error) {
		return nil, boom // first run: c faults after a and b can complete
	}

	journalPath := filepath.Join(dir, "journal.jsonl")
	j, jf, _, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	m := &Memo{Store: st, Clock: clock.NewSim(1), Journal: j}
	// The chain forces a and b to complete before c faults; d is skipped.
	out, err := m.Run(context.Background(), wf, bodies, uniform(wf, "v1"))
	if err == nil {
		t.Fatal("fault did not surface")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("unexpected error: %v", err)
	}
	if out.Stats.Executed != 2 || out.Stats.Failed != 1 {
		t.Fatalf("faulted run stats: %+v", out.Stats)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Second process: reopen the store and the journal, re-run.
	bodies["c"] = realC // fault fixed
	executed.Store(0)
	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, jf2, prior, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	if len(prior) != 2 || prior[0].Step != "a" || prior[1].Step != "b" {
		t.Fatalf("journal of the faulted run = %+v, want a and b", prior)
	}
	m2 := &Memo{Store: st2, Clock: clock.NewSim(1), Journal: j2}
	out2, err := m2.Run(context.Background(), wf, bodies, uniform(wf, "v1"))
	if err != nil {
		t.Fatal(err)
	}
	// Only c and d — the steps that had not completed — re-execute.
	if got := executed.Load(); got != 2 {
		t.Fatalf("re-run executed %d bodies, want 2", got)
	}
	if out2.Status["a"] != StatusHit || out2.Status["b"] != StatusHit {
		t.Fatalf("status: %v", out2.Status)
	}
	if out2.Status["c"] != StatusExecuted || out2.Status["d"] != StatusExecuted {
		t.Fatalf("status: %v", out2.Status)
	}
	if out2.Stats.Hits != 2 || out2.Stats.Executed != 2 {
		t.Fatalf("re-run stats: %+v", out2.Stats)
	}
	for _, id := range []string{"a", "b"} {
		if out2.Keys[id] != out.Keys[id] {
			t.Errorf("step %s: re-run key %s, faulted run %s", id, out2.Keys[id], out.Keys[id])
		}
	}
	if err := j2.Err(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, e := range entries {
		steps = append(steps, e.Run+":"+e.Step+":"+string(e.Status))
	}
	if want := "[1:a:exec 1:b:exec 2:a:hit 2:b:hit 2:c:exec 2:d:exec]"; fmt.Sprint(steps) != want {
		t.Fatalf("journal = %v, want %s", steps, want)
	}
}

func TestJournalDeterministicUnderSim(t *testing.T) {
	render := func() string {
		st := NewMemStore()
		var executed atomic.Int64
		wf := diamond()
		var buf bytes.Buffer
		m := &Memo{Store: st, Clock: clock.NewSim(7), Journal: NewJournal(&buf, nil)}
		if _, err := m.Run(context.Background(), wf, countingBodies(&executed), nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("journal differs across runs:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, `"at_s":0`) {
		t.Fatalf("sim-clock timestamps expected at epoch, got:\n%s", first)
	}
}

func TestReadJournalTornTail(t *testing.T) {
	good := `{"seq":1,"run":"r","workflow":"w","step":"a","key":"` + string(KeyOf([]byte("x"))) + `","status":"exec","at_s":0}`
	entries, err := ReadJournal(strings.NewReader(good + "\n" + `{"seq":2,"run":"r","wor`))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Step != "a" {
		t.Fatalf("entries = %+v", entries)
	}
	// A torn interior line is a real error.
	if _, err := ReadJournal(strings.NewReader(`{"bad` + "\n" + good + "\n")); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// failingWriter accepts n writes, then fails every subsequent one,
// counting the attempts it keeps receiving after the first failure.
type failingWriter struct {
	mu           sync.Mutex
	remaining    int
	afterFailure int
	failed       bool
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed {
		f.afterFailure++
		return 0, errors.New("stream already broken")
	}
	if f.remaining == 0 {
		f.failed = true
		return 0, errors.New("disk full")
	}
	f.remaining--
	return len(p), nil
}

// A failing journal writer must surface via Err — and once the stream has
// failed, no further bytes may be sent to it (a short write may have torn
// its last line; piling more lines on top guarantees interior corruption
// that ReadJournal rejects).
func TestJournalFailingWriter(t *testing.T) {
	fw := &failingWriter{remaining: 3}
	j := NewJournal(fw, nil)
	for i := 0; i < 10; i++ {
		j.Append(Entry{Run: "r", Workflow: "w", Step: fmt.Sprintf("s%d", i), Key: KeyOf([]byte{byte(i)}), Status: StatusExecuted})
	}
	if j.Err() == nil {
		t.Fatal("write failure not surfaced via Err")
	}
	if fw.afterFailure != 0 {
		t.Errorf("%d writes attempted on the broken stream after the first failure", fw.afterFailure)
	}
}

// Concurrent appends: every entry gets a unique Seq, and when the writer
// fails the first error is pinned and the broken stream receives nothing
// further.
func TestJournalConcurrentAppendFailingWriter(t *testing.T) {
	appendAll := func(j *Journal) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					j.Append(Entry{Run: "r", Workflow: "w", Step: fmt.Sprintf("g%d-s%d", g, i), Status: StatusExecuted})
				}
			}()
		}
		wg.Wait()
	}
	fw := &failingWriter{remaining: 5}
	j := NewJournal(fw, nil)
	appendAll(j)
	if j.Err() == nil {
		t.Fatal("write failure not surfaced")
	}
	if fw.afterFailure != 0 {
		t.Errorf("%d writes reached the broken stream after the first failure", fw.afterFailure)
	}

	var buf bytes.Buffer
	appendAll(NewJournal(&buf, nil))
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 400 {
		t.Fatalf("entries = %d, want 400", len(entries))
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	for s := 1; s <= 400; s++ {
		if !seen[s] {
			t.Fatalf("Seq %d missing", s)
		}
	}
}

func TestMemoMissingBody(t *testing.T) {
	wf := diamond()
	m := &Memo{Store: NewMemStore()}
	if _, err := m.Run(context.Background(), wf, nil, nil); err == nil {
		t.Fatal("missing bodies accepted")
	}
	m2 := &Memo{}
	if _, err := m2.Run(context.Background(), wf, nil, nil); !errors.Is(err, ErrNoStore) {
		t.Fatalf("want ErrNoStore, got %v", err)
	}
}

// uniform assigns fp to every step of wf: one code version for the whole
// workflow.
func uniform(wf *workflow.Workflow, fp string) map[string]string {
	out := make(map[string]string, wf.Len())
	for _, s := range wf.Steps() {
		out[s.ID] = fp
	}
	return out
}
