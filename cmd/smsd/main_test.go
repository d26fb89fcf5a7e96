package main

import (
	"strings"
	"testing"
)

func TestListContainsRegistry(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"continuum/faas", "continuum/io", "report.full", "experiments (POST /experiments"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

// The loadtest report is a deterministic artifact: identical bytes across
// repeated runs and across worker counts, down to the sha256 of the final
// /metrics exposition.
func TestLoadtestDeterministic(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		err := run([]string{
			"-loadtest", "2000",
			"-lt-names", "continuum/io,continuum/energy",
			"-seed", "42",
			"-workers", workers,
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render("4")
	if got := render("4"); got != first {
		t.Fatalf("loadtest differs across identical runs:\n%s\nvs\n%s", first, got)
	}
	for _, w := range []string{"1", "8"} {
		got := render(w)
		// Only the echoed workers= header may differ.
		a := first[strings.Index(first, "\n"):]
		b := got[strings.Index(got, "\n"):]
		if a != b {
			t.Fatalf("loadtest differs between 4 and %s workers:\n%s\nvs\n%s", w, first, got)
		}
	}
	for _, want := range []string{"endpoint status", "code 200", "prom_sha256", "latency_us"} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
}

func TestLoadtestUnknownName(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-loadtest", "10", "-lt-names", "no/such"}, &sb); err == nil {
		t.Fatal("unknown -lt-names accepted")
	}
}

// corpus/classify and corpus/stats classify one corpus, so their jobs share
// every shard key. Run at once, each shard is computed by one of them and
// recalled by the other, so the exposition (shard exec/hit counters
// included) is the -workers 1 bytes at every worker count.
func TestLoadtestSharedShardsDeterministic(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		if err := run([]string{"-loadtest", "2000", "-lt-names", "corpus/classify,corpus/stats",
			"-workers", workers}, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		return out[strings.Index(out, "\n"):] // past the echoed workers= header
	}
	want := render("1")
	for i := 0; i < 20; i++ {
		for _, w := range []string{"4", "8"} {
			if got := render(w); got != want {
				t.Fatalf("run %d at %s workers differs from 1 worker:\n%s\nvs\n%s", i, w, got, want)
			}
		}
	}
}
