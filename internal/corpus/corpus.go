// Package corpus scales the mapping-study engine from paper size (25 tool
// descriptions) to repository-mining size (10^4–10^7 entries): a seeded
// synthetic corpus generator plus a sharded, content-addressed
// classification pipeline over it.
//
// The generator is the workload the ROADMAP's "Big Data management
// direction applied to the paper's own machinery" item asks for:
// parameterized tool-description corpora with a controllable direction mix,
// cross-direction vocabulary overlap, and noise, where entry i is a pure
// function of (seed, i) — shards can generate their slices independently,
// in any order, on any worker count, and always produce the same bytes.
// Classification runs the compiled keyword automaton (core.Compiled), read
// a word at a time through its word-stride table, over fixed-size corpus
// shards under exp.MapShards, memoizing each shard's aggregate in the
// content-addressed store: a warm re-run executes zero shard bodies, and
// growing the corpus re-executes only the shards whose entry ranges
// actually changed (classify.go).
package corpus

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// Spec parameterizes a synthetic corpus. The zero Mix means uniform across
// the five directions; weights are relative, not normalized.
type Spec struct {
	// N is the corpus size (number of tool descriptions).
	N int
	// Mix weighs the five research directions in catalog canonical order
	// when drawing each entry's true direction.
	Mix [5]float64
	// Overlap is the probability that a planted keyword is drawn from a
	// direction other than the entry's true one — the knob that makes
	// classification genuinely confusable instead of trivially separable.
	Overlap float64
	// Noise is the number of neutral filler words per entry (filler never
	// matches any keyword, pinned by TestFillerVocabularyIsNeutral).
	Noise int
	// Keywords is the number of planted keywords per entry.
	Keywords int
}

// DefaultSpec is the reference corpus shape: uniform mix, mild overlap,
// descriptions of roughly catalog length.
func DefaultSpec(n int) Spec {
	return Spec{N: n, Overlap: 0.15, Noise: 12, Keywords: 3}
}

// fingerprint renders every behaviour-determining field except N — shard
// memo keys must survive corpus growth (see classify.go).
func (s Spec) fingerprint() string {
	return fmt.Sprintf("mix=%g,%g,%g,%g,%g|ov=%g|noise=%d|kw=%d",
		s.Mix[0], s.Mix[1], s.Mix[2], s.Mix[3], s.Mix[4], s.Overlap, s.Noise, s.Keywords)
}

// fillerVocab is the neutral background vocabulary. Every word — and every
// space-joined sequence of them — is free of classification keywords, so
// noise dilutes the signal without ever forging it.
var fillerVocab = [...]string{
	"the", "quiet", "harbor", "violet", "method", "chapter", "outline",
	"meadow", "copper", "lantern", "summit", "exact", "mirror", "velvet",
	"anchor", "ribbon", "timber", "marble", "saffron", "quartz", "willow",
	"canyon", "ember", "breeze", "cobalt", "meridian", "pellucid", "tundra",
	"vestibule", "zephyr", "gossamer",
}

// vocabulary is every word an entry can hold, with its word-stride table
// over the compiled classifier. IDs first[d] to first[d+1]-1 are direction
// d's keywords, sorted, in canonical direction order; first[5] on are
// fillerVocab's words.
type vocabulary struct {
	words []string
	first [6]core.WordID
	table *core.WordTable
}

// vocab builds the vocabulary once per process, on first use.
var vocab = sync.OnceValue(func() *vocabulary {
	v := &vocabulary{}
	for d, dir := range catalog.Directions() {
		v.first[d] = core.WordID(len(v.words))
		v.words = append(v.words, core.KeywordsFor(dir)...)
	}
	v.first[5] = core.WordID(len(v.words))
	v.words = append(v.words, fillerVocab[:]...)
	v.table = core.Compiled().CompileWords(v.words)
	return v
})

// Generator produces the entries of one corpus. It is immutable after
// construction and safe for concurrent use: all per-entry state lives in
// the caller's buffers and a stack-local RNG.
type Generator struct {
	spec Spec
	seed int64
	v    *vocabulary
	// cum is the cumulative (normalized) direction mix.
	cum [5]float64
}

// NewGenerator compiles a generator for the spec and root seed.
func NewGenerator(spec Spec, seed int64) *Generator {
	g := &Generator{spec: spec, seed: seed, v: vocab()}
	mix := spec.Mix
	total := 0.0
	for _, w := range mix {
		total += w
	}
	if total <= 0 {
		mix = [5]float64{1, 1, 1, 1, 1}
		total = 5
	}
	acc := 0.0
	for i, w := range mix {
		acc += w / total
		g.cum[i] = acc
	}
	g.cum[4] = 1 // guard against accumulated rounding at the top bucket
	return g
}

// direction draws a true direction from the mix.
func (g *Generator) direction(r *rng.Rand) int {
	u := r.Float64()
	for d := 0; d < 4; d++ {
		if u < g.cum[d] {
			return d
		}
	}
	return 4
}

// draw is the word draw of one entry, shared by Describe and Classify: its
// RNG calls, in order, are the generation recipe. Entry i is a pure
// function of (seed, i): the per-entry stream is split from the root seed
// with par.SplitSeed, so any shard can generate any slice independently.
type draw struct {
	g         *Generator
	r         rng.Rand
	dir       int
	kw, noise int // words of each kind left to draw
}

// draw starts entry i: it draws the entry's true direction.
func (g *Generator) draw(i int) draw {
	d := draw{g: g, r: rng.Seeded(par.SplitSeed(g.seed, i)), kw: g.spec.Keywords, noise: g.spec.Noise}
	d.dir = g.direction(&d.r)
	return d
}

// more reports whether the entry has a word left to draw.
func (d *draw) more() bool { return d.kw+d.noise > 0 }

// next draws the entry's next word.
func (d *draw) next() core.WordID {
	first := &d.g.v.first
	if d.r.Intn(d.kw+d.noise) < d.kw {
		// Plant a keyword: usually from the true direction, sometimes
		// (Overlap) from a foreign one.
		dir := d.dir
		if d.g.spec.Overlap > 0 && d.r.Float64() < d.g.spec.Overlap {
			dir = (d.dir + 1 + d.r.Intn(4)) % 5
		}
		d.kw--
		return first[dir] + core.WordID(d.r.Intn(int(first[dir+1]-first[dir])))
	}
	d.noise--
	return first[5] + core.WordID(d.r.Intn(len(fillerVocab)))
}

// Describe appends entry i's description to buf and returns the extended
// buffer plus the entry's true direction (canonical index). It renders the
// words Classify steps, so it is the text Classify's answer must match.
func (g *Generator) Describe(i int, buf []byte) ([]byte, int) {
	d := g.draw(i)
	for first := true; d.more(); first = false {
		if !first {
			buf = append(buf, ' ')
		}
		buf = append(buf, g.v.words[d.next()]...)
	}
	return buf, d.dir
}

// Classify classifies entry i without rendering it, stepping the
// vocabulary's word-stride table over the entry's word draw. It returns
// the entry's true and predicted directions (canonical indices) and the
// length in bytes of its description; s holds the scores and matched
// keywords until its next use, as after core.Classifier.ClassifyInto on
// Describe's text, which it agrees with exactly. On a warm s it allocates
// nothing.
func (g *Generator) Classify(i int, s *core.ClassifyScratch) (dir, pred, n int) {
	t := g.v.table
	d := g.draw(i)
	t.Begin(s)
	n = -1 // no space before the first word
	for d.more() {
		w := d.next()
		t.Step(w, s)
		n += 1 + len(g.v.words[w])
	}
	return d.dir, t.End(s), max(n, 0)
}
