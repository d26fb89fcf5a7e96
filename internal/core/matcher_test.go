package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rng"
)

// fuzzDescription builds a hostile random description: keywords from every
// direction, keyword fragments, noise, random casing, messy whitespace and
// occasional unicode — the inputs most likely to split the automaton from
// the strings.Contains reference.
func fuzzDescription(r *rng.Rand) string {
	var vocab []string
	for _, d := range catalog.Directions() {
		vocab = append(vocab, KeywordsFor(d)...)
	}
	noise := []string{"the", "a", "of", "runtime", "system", "data", "works",
		"orch", "estrat", "kern", "notebo", "ener", "gygy", "portabportab"}
	seps := []string{" ", "  ", "\t", "\n", " \t ", "\u00a0", " – "}
	var b strings.Builder
	n := 1 + r.Intn(24)
	for i := 0; i < n; i++ {
		var w string
		switch r.Intn(4) {
		case 0, 1:
			w = vocab[r.Intn(len(vocab))]
		case 2:
			w = noise[r.Intn(len(noise))]
		default: // random-cased keyword
			kw := vocab[r.Intn(len(vocab))]
			var c strings.Builder
			for j := 0; j < len(kw); j++ {
				ch := kw[j]
				if r.Intn(2) == 0 && 'a' <= ch && ch <= 'z' {
					ch -= 'a' - 'A'
				}
				c.WriteByte(ch)
			}
			w = c.String()
		}
		b.WriteString(w)
		b.WriteString(seps[r.Intn(len(seps))])
	}
	return b.String()
}

// The automaton must agree with the strings.Contains reference on every
// input: direction, scores, and matched keywords.
func TestAutomatonMatchesReference(t *testing.T) {
	check := func(desc string) {
		t.Helper()
		got := ClassifyDescription(desc)
		want := classifyDescriptionRef(desc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("automaton diverges on %q:\n got %+v\nwant %+v", desc, got, want)
		}
	}
	for _, tool := range catalog.Default().Tools {
		check(tool.Description)
	}
	r := rng.New(99)
	for i := 0; i < 5000; i++ {
		check(fuzzDescription(r))
	}
}

// The kernel path must agree with the convenience API, for strings and for
// byte slices out of reused buffers.
func TestClassifyIntoMatchesClassifyDescription(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	r := rng.New(7)
	var buf []byte
	for i := 0; i < 2000; i++ {
		desc := fuzzDescription(r)
		want := ClassifyDescription(desc)

		w := c.ClassifyInto(desc, &s)
		if got := catalog.Directions()[w]; got != want.Direction {
			t.Fatalf("ClassifyInto(%q) = %s, want %s", desc, got, want.Direction)
		}
		for d, dir := range catalog.Directions() {
			if s.Scores[d] != want.Scores[dir] {
				t.Fatalf("ClassifyInto(%q) score[%s] = %g, want %g", desc, dir, s.Scores[d], want.Scores[dir])
			}
		}
		matched := c.MatchedAppend(nil, w, &s)
		if len(matched) == 0 {
			matched = nil
		}
		if !reflect.DeepEqual(matched, want.Matched) {
			t.Fatalf("ClassifyInto(%q) matched %v, want %v", desc, matched, want.Matched)
		}

		buf = append(buf[:0], desc...)
		if wb := c.ClassifyBytes(buf, &s); wb != w {
			t.Fatalf("ClassifyBytes(%q) = %d, want %d", desc, wb, w)
		}
	}
}

// The compiled automaton is a real DFA over the scheme: a few structural
// sanity checks.
func TestCompiledShape(t *testing.T) {
	c := Compiled()
	total := 0
	for _, d := range catalog.Directions() {
		total += len(KeywordsFor(d))
	}
	if c.Patterns() != total {
		t.Fatalf("compiled %d patterns, want %d", c.Patterns(), total)
	}
	if c.States() < total { // at least one terminal state per distinct keyword
		t.Fatalf("only %d states for %d patterns", c.States(), total)
	}
	if Compiled() != c {
		t.Fatal("Compiled is not a singleton")
	}
	if width := 1 << c.shift; width >= 256 {
		t.Fatalf("product rows are %d entries wide, want fewer than the 256 byte values", width)
	}
}

// A keyword the product automaton cannot match exactly — empty, or not in
// normalized form, which includes whitespace at either end — must fail the
// build, not compile into a table that silently misses it.
func TestBuildRejectsUnnormalizedKeyword(t *testing.T) {
	for _, kw := range []string{"", "energy ", " energy", "\tenergy", "Energy", "big  data", "big\tdata"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buildClassifier accepted keyword %q", kw)
				}
			}()
			buildClassifier(map[catalog.Direction]map[string]float64{catalog.EnergyEfficiency: {kw: 1}})
		}()
	}
}

// kernelClassification reads the last ClassifyInto/ClassifyBytes result w
// out of s in the shape of ClassifyDescription's answer.
func kernelClassification(c *Classifier, w int, s *ClassifyScratch) Classification {
	scores := map[catalog.Direction]float64{}
	for d, sc := range s.Scores {
		if sc != 0 {
			scores[catalog.Directions()[d]] = sc
		}
	}
	matched := c.MatchedAppend(nil, w, s)
	if len(matched) == 0 {
		matched = nil
	}
	return Classification{Direction: catalog.Directions()[w], Scores: scores, Matched: matched}
}

// FuzzClassify drives every classify entry point against the
// strings.Contains reference on arbitrary input: the direction, the exact
// scores and the matched keywords must all agree. Its seed corpus under
// testdata/fuzz/FuzzClassify runs on every go test.
func FuzzClassify(f *testing.F) {
	c := Compiled()
	f.Fuzz(func(t *testing.T, desc string) {
		want := classifyDescriptionRef(desc)
		if got := ClassifyDescription(desc); !reflect.DeepEqual(got, want) {
			t.Fatalf("ClassifyDescription(%q):\n got %+v\nwant %+v", desc, got, want)
		}
		var s ClassifyScratch
		if got := kernelClassification(c, c.ClassifyInto(desc, &s), &s); !reflect.DeepEqual(got, want) {
			t.Fatalf("ClassifyInto(%q):\n got %+v\nwant %+v", desc, got, want)
		}
		if got := kernelClassification(c, c.ClassifyBytes([]byte(desc), &s), &s); !reflect.DeepEqual(got, want) {
			t.Fatalf("ClassifyBytes(%q):\n got %+v\nwant %+v", desc, got, want)
		}
	})
}

// The classify kernel must not allocate in steady state — the property the
// million-entry corpus path is built on.
func TestClassifyIntoZeroAllocs(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	descs := make([]string, 0, len(catalog.Default().Tools))
	for _, tool := range catalog.Default().Tools {
		descs = append(descs, tool.Description)
	}
	c.ClassifyInto(descs[0], &s) // warm the scratch
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.ClassifyInto(descs[i%len(descs)], &s)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ClassifyInto allocates %.1f times per op, want 0", allocs)
	}
}

// Epoch wraparound must not resurrect stale matches.
func TestScratchEpochWrap(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	c.ClassifyInto("jupyter notebook kernel", &s)
	s.epoch = ^uint32(0) // force the wrap on the next begin
	w := c.ClassifyInto("energy footprint", &s)
	if got := catalog.Directions()[w]; got != catalog.EnergyEfficiency {
		t.Fatalf("post-wrap classification = %s, want %s", got, catalog.EnergyEfficiency)
	}
	if s.Scores[catalog.InteractiveComputing.Index()] != 0 {
		t.Fatal("stale pre-wrap matches leaked into the new epoch")
	}
}

// KeywordsFor returns sorted copies and covers every direction.
func TestKeywordsFor(t *testing.T) {
	for _, d := range catalog.Directions() {
		kws := KeywordsFor(d)
		if len(kws) == 0 {
			t.Fatalf("no keywords for %s", d)
		}
		for i := 1; i < len(kws); i++ {
			if kws[i-1] >= kws[i] {
				t.Fatalf("KeywordsFor(%s) not strictly sorted: %v", d, kws)
			}
		}
		kws[0] = "mutated"
		if KeywordsFor(d)[0] == "mutated" {
			t.Fatalf("KeywordsFor(%s) returns shared backing storage", d)
		}
	}
}
