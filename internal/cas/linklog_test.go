package cas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// linkStep is one Link call of a scripted sequence.
type linkStep struct{ name, target Key }

// linkScript is a known sequence of Links, with re-links of n0 and n1.
func linkScript() []linkStep {
	n := func(i int) Key { return KeyOf([]byte(fmt.Sprintf("name-%d", i))) }
	tg := func(i int) Key { return KeyOf([]byte(fmt.Sprintf("target-%d", i))) }
	return []linkStep{
		{n(0), tg(0)}, {n(1), tg(1)}, {n(0), tg(2)}, {n(2), tg(3)},
		{n(0), tg(4)}, {n(3), tg(5)}, {n(1), tg(0)},
	}
}

// writeScript runs steps against a fresh DiskStore and returns its log.
func writeScript(t *testing.T, steps []linkStep) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if err := st.Link(s.name, s.target); err != nil {
			t.Fatal(err)
		}
	}
	log, err := os.ReadFile(filepath.Join(dir, linkLog))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// recordEnds returns the offset just past each record line of log, in
// order: a record lies wholly inside a prefix that reaches its end.
func recordEnds(log []byte) []int {
	var ends []int
	for off := 0; off < len(log); {
		n := bytes.IndexByte(log[off:], '\n')
		if n < 0 {
			n = len(log) - off
		}
		if n > 0 {
			ends = append(ends, off+n)
		}
		off += n + 1
	}
	return ends
}

// table reads a store's whole link table through the Store interface.
func table(t *testing.T, st Store) map[Key]Key {
	t.Helper()
	names, err := st.Links()
	if err != nil {
		t.Fatal(err)
	}
	out := map[Key]Key{}
	for _, n := range names {
		target, ok, err := st.Resolve(n)
		if err != nil || !ok {
			t.Fatalf("listed link %s does not resolve: ok=%v err=%v", n.Short(), ok, err)
		}
		out[n] = target
	}
	return out
}

// reopen writes log as dir's link log and opens a store on dir.
func reopen(t *testing.T, dir string, log []byte) *DiskStore {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, linkLog), log, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return st
}

// A crash can cut the log at any byte. For every prefix, the reopened store
// opens without error and resolves each name to the target of its last
// record lying wholly inside the prefix; no other name is linked.
func TestLinkLogEveryPrefix(t *testing.T) {
	steps := linkScript()
	log := writeScript(t, steps)
	ends := recordEnds(log)
	if len(ends) != len(steps) {
		t.Fatalf("log holds %d record lines, want %d", len(ends), len(steps))
	}
	dir := t.TempDir()
	for p := 0; p <= len(log); p++ {
		want := map[Key]Key{}
		for i, s := range steps {
			if ends[i] <= p {
				want[s.name] = s.target
			}
		}
		if got := table(t, reopen(t, dir, log[:p])); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d of %d: table %v, want %v", p, len(log), got, want)
		}
	}
}

// Flipping any single byte of one record, its framing newlines included,
// drops that record and no other.
func TestLinkLogByteFlip(t *testing.T) {
	steps := linkScript()
	log := writeScript(t, steps)
	ends := recordEnds(log)
	const victim = 2 // the first re-link of n0
	want := map[Key]Key{}
	for i, s := range steps {
		if i != victim {
			want[s.name] = s.target
		}
	}
	start := ends[victim-1] + 1 // the victim's leading newline
	dir := t.TempDir()
	for off := start; off <= ends[victim]; off++ {
		for _, mask := range []byte{0x01, 0x20, 0x80} {
			bad := bytes.Clone(log)
			bad[off] ^= mask
			if got := table(t, reopen(t, dir, bad)); !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d ^ %#x: table %v, want %v", off, mask, got, want)
			}
		}
	}
}

// After a crash tore the last record at any byte, a new Link still lands
// and resolves after a reopen, and the intact records keep their targets.
func TestLinkLogTornTailThenLink(t *testing.T) {
	steps := linkScript()
	log := writeScript(t, steps)
	ends := recordEnds(log)
	last := len(steps) - 1
	fresh := KeyOf([]byte("fresh-name"))
	dir := t.TempDir()
	for cut := ends[last-1] + 1; cut < ends[last]; cut++ {
		st := reopen(t, dir, log[:cut])
		want := table(t, st)
		want[fresh] = KeyOf([]byte("fresh-target"))
		if err := st.Link(fresh, want[fresh]); err != nil {
			t.Fatal(err)
		}
		again, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := table(t, again); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: table %v, want %v", cut, got, want)
		}
	}
}

// Concurrent Links of shared and private names: the table follows the log,
// so Resolve answers the same before and after a reopen. Run it under
// -race -count=10.
func TestLinkConcurrentReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				target := KeyOf([]byte(fmt.Sprintf("target-%d-%d", g, i)))
				shared := KeyOf([]byte(fmt.Sprintf("shared-%d", i%3)))
				private := KeyOf([]byte(fmt.Sprintf("private-%d-%d", g, i%4)))
				for _, name := range []Key{shared, private} {
					if err := st.Link(name, target); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	before := table(t, st)
	if len(before) != 3+8*4 {
		t.Fatalf("%d names linked, want %d", len(before), 3+8*4)
	}
	again, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after := table(t, again); !reflect.DeepEqual(before, after) {
		t.Fatalf("table changed across reopen:\nbefore %v\nafter  %v", before, after)
	}
}

// A Link that fails leaves its name at the old target, in memory and in
// the log, and a malformed target is rejected before anything is written.
func TestLinkErrorKeepsOldTarget(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	name, old := KeyOf([]byte("name")), KeyOf([]byte("old"))
	if err := st.Link(name, old); err != nil {
		t.Fatal(err)
	}
	if err := st.Link(name, "not-a-key"); err == nil {
		t.Fatal("malformed target accepted")
	}
	// A directory in the log's place makes opening it fail.
	logPath := filepath.Join(dir, linkLog)
	if err := os.Rename(logPath, logPath+".keep"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Link(name, KeyOf([]byte("new"))); err == nil {
		t.Fatal("Link succeeded without a writable log")
	}
	if got, ok, err := st.Resolve(name); err != nil || !ok || got != old {
		t.Fatalf("after a failed Link: %s ok=%v err=%v, want the old target", got, ok, err)
	}
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(logPath+".keep", logPath); err != nil {
		t.Fatal(err)
	}
	again, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := table(t, again); !reflect.DeepEqual(got, map[Key]Key{name: old}) {
		t.Fatalf("reopened table %v, want only the old target", got)
	}
}

// FuzzLinkLog feeds arbitrary bytes in as links.log. Opening never fails on
// log content, every listed name resolves to a valid key, and a Link
// appended after the fuzzed bytes resolves after a reopen, beside every
// link the fuzzed log held.
func FuzzLinkLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		st := reopen(t, dir, log)
		want := table(t, st)
		for name, target := range want {
			if !name.Valid() || !target.Valid() {
				t.Fatalf("replayed link %q -> %q", name, target)
			}
		}
		fresh := KeyOf(append([]byte("fresh-name|"), log...))
		want[fresh] = KeyOf([]byte("fresh-target"))
		if err := st.Link(fresh, want[fresh]); err != nil {
			t.Fatal(err)
		}
		again, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := table(t, again); !reflect.DeepEqual(got, want) {
			t.Fatalf("after an appended Link: table %v, want %v", got, want)
		}
	})
}
