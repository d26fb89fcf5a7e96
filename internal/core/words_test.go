package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// fillerWords is the synthetic corpus generator's neutral filler
// (corpus.fillerVocab), which this package cannot import.
var fillerWords = []string{
	"the", "quiet", "harbor", "violet", "method", "chapter", "outline",
	"meadow", "copper", "lantern", "summit", "exact", "mirror", "velvet",
	"anchor", "ribbon", "timber", "marble", "saffron", "quartz", "willow",
	"canyon", "ember", "breeze", "cobalt", "meridian", "pellucid", "tundra",
	"vestibule", "zephyr", "gossamer",
}

// fuzzWords is FuzzWords' vocabulary: every keyword, the corpus filler,
// fuzzDescription's fragments, and the single words of every multi-word
// keyword, so that a keyword can also form across a word boundary.
func fuzzWords() []string {
	var kws, split []string
	for _, d := range catalog.Directions() {
		for _, kw := range KeywordsFor(d) {
			kws = append(kws, kw)
			if strings.Contains(kw, " ") {
				split = append(split, strings.Fields(kw)...)
			}
		}
	}
	words := append(kws, fillerWords...)
	words = append(words, fragments...)
	return append(words, split...)
}

// FuzzWords checks the word-stride table against the strings.Contains
// reference: each input byte picks a word of fuzzWords, and the table's
// direction, exact scores and matched keywords must be those of the words
// joined by single spaces, on a fresh scratch and again on the used one.
// Its seed corpus under testdata/fuzz/FuzzWords runs on every go test.
func FuzzWords(f *testing.F) {
	c := Compiled()
	vocab := fuzzWords()
	if len(vocab) > 256 {
		f.Fatalf("%d words, more than an input byte can pick", len(vocab))
	}
	t := c.CompileWords(vocab)
	f.Fuzz(func(tt *testing.T, picks []byte) {
		words := make([]string, len(picks))
		for i, b := range picks {
			words[i] = vocab[int(b)%len(vocab)]
		}
		text := strings.Join(words, " ")
		want := classifyDescriptionRef(text)
		var s ClassifyScratch
		for pass := range 2 {
			t.Begin(&s)
			for _, b := range picks {
				t.Step(WordID(int(b)%len(vocab)), &s)
			}
			if got := kernelClassification(c, t.End(&s), &s); !reflect.DeepEqual(got, want) {
				tt.Fatalf("pass %d, words %q:\n got %+v\nwant %+v", pass, text, got, want)
			}
		}
	})
}

// A word the table cannot replay — empty, not normalized, or not ASCII —
// fails the build with a message of its own, and so does a vocabulary
// larger than a WordID can name; an ID outside the vocabulary fails the
// step.
func TestCompileWordsRejects(t *testing.T) {
	c := Compiled()
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ") {
				t.Errorf("%s: want CompileWords' own panic, got %q", what, msg)
			}
		}()
		fn()
	}
	for _, w := range []string{"", "Energy", " energy", "energy ", "big  data", "big\tdata", "café"} {
		mustPanic("CompileWords("+w+")", func() { c.CompileWords([]string{"the", w}) })
	}
	many := make([]string, maxWords+1)
	for i := range many {
		many[i] = "w"
	}
	mustPanic("CompileWords of maxWords+1 words", func() { c.CompileWords(many) })
	c.CompileWords(many[:maxWords])

	tab := c.CompileWords([]string{"energy", "data"})
	var s ClassifyScratch
	tab.Begin(&s)
	defer func() {
		if recover() == nil {
			t.Error("Step past the vocabulary did not panic")
		}
	}()
	tab.Step(2, &s)
}
