package core

// The compiled keyword automaton: the classification hot path rebuilt for
// million-entry corpora (ROADMAP "Corpus at scale").
//
// The seed classifier ran O(directions × keywords) strings.Contains scans
// per document and allocated two maps plus matched-keyword slices per call.
// At 25 tools that is invisible; at 10^7 synthetic tool descriptions it is
// the whole budget. This file compiles directionKeywords once into an
// Aho-Corasick automaton (Aho & Corasick, CACM 1975), then folds the
// reference normalization into it: the scan walks a product automaton whose
// states pair an automaton state with a whitespace mode, over a compact
// alphabet of byte classes. Classification is a single left-to-right pass —
// one class lookup and one table load per input byte, with no per-byte
// branch on case or whitespace — that discovers every keyword occurrence of
// every direction at once, with zero steady-state allocations when driven
// through a reusable ClassifyScratch.
//
// The reference semantics match on
// normalize(desc) = strings.Join(strings.Fields(strings.ToLower(desc)), " ").
// For pure-ASCII input (every generated corpus entry and all but the
// pathological catalog descriptions) the product automaton lowercases and
// collapses whitespace as it walks, byte for byte identical to the
// reference, without materializing the normalized string. Non-ASCII input
// falls back to normalizing first and walking the same table — correctness
// is pinned by the equivalence tests and FuzzClassify, which drive both
// paths against the strings.Contains reference.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/catalog"
)

// numDirections is the fixed direction alphabet of the study.
const numDirections = 5

// pattern is one compiled keyword: its direction (canonical index), weight,
// and original spelling (for Classification.Matched).
type pattern struct {
	dir    int8
	weight float64
	kw     string
}

// The fixed columns of the product table. Every byte that occurs in a
// keyword, other than ' ', gets a column of its own after these.
const (
	colOther    = iota // a byte no keyword contains
	colSpace           // ASCII whitespace; the ' ' inside multi-word keywords
	colNonASCII        // a byte >= 0x80 on the first pass, which ends it
	numFixedCols
)

// nonASCII is every row's entry in column colNonASCII. It is negative like
// a recognizing entry, and distinct from all of them: those are ^offset,
// with offsets far below MaxInt32.
const nonASCII = math.MinInt32

// Classifier is the compiled keyword automaton. Build it once (Compiled
// returns the process-wide instance over directionKeywords); Classify* calls
// are safe for concurrent use because matching only reads the tables —
// all per-call state lives in the caller's ClassifyScratch.
type Classifier struct {
	// delta is the product automaton: one row of 1<<shift entries per
	// state, one entry per byte class. Rows 0..n-1 are word rows: word row
	// q is entered on a non-space byte that leaves the Aho-Corasick
	// automaton in state q. The rows after them are pending rows, one per
	// state p that a ' ' transition reaches: the scan stands in one during
	// a whitespace run, with the run already taken as that single ' '. A
	// non-space byte leaves a pending row by its own transition, so the
	// ' ' and the byte after it cost one entry together. An entry is the
	// premultiplied offset of its target row, complemented (so negative)
	// when the target recognizes a pattern, or nonASCII.
	delta []int32
	shift uint
	// start is the offset of the row before the first word: the pending
	// row of the root, so leading whitespace is dropped.
	start int32
	// rawClass maps an input byte to its column: A-Z fold onto a-z, all
	// ASCII whitespace shares colSpace and every byte >= 0x80 ends the
	// pass. normClass maps normalize's output, in which a byte >= 0x80 is
	// text like any other.
	rawClass, normClass [256]uint8
	// outStart[q]..outStart[q+1] indexes outPat: the patterns recognized
	// on entering word row q (own matches plus every suffix match
	// inherited through the failure chain).
	outStart []int32
	outPat   []int32
	pats     []pattern
	// fingerprint is SchemeFingerprint's value, hashed once at build.
	fingerprint string
}

// ClassifyScratch carries the per-call state of the zero-allocation
// classify kernel. The zero value is ready to use; reusing one scratch
// across calls (one per shard/goroutine — it is not concurrency-safe) makes
// steady-state classification allocation-free.
type ClassifyScratch struct {
	// Scores is the per-direction score of the last classified document,
	// indexed by catalog.Direction canonical index.
	Scores [numDirections]float64
	// nMatched counts distinct keywords of the winning direction.
	nMatched int
	// seen deduplicates pattern hits: seen[p] == epoch marks pattern p as
	// already counted for the current document (a keyword scores once no
	// matter how often it occurs, mirroring strings.Contains).
	seen  []uint32
	epoch uint32
	// fired lists the distinct pattern IDs hit by the current document.
	fired []int32
}

// begin resets the scratch for a new document against c.
func (s *ClassifyScratch) begin(c *Classifier) {
	if len(s.seen) < len(c.pats) {
		s.seen = make([]uint32, len(c.pats))
		s.fired = make([]int32, 0, len(c.pats))
	}
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps could alias the new epoch
		clear(s.seen)
		s.epoch = 1
	}
	s.fired = s.fired[:0]
	for d := range s.Scores {
		s.Scores[d] = 0
	}
}

// buildClassifier compiles the weighted keyword scheme into the automaton.
// Construction order is deterministic: directions in canonical order,
// keywords sorted within each direction, so pattern IDs — and therefore
// every downstream artifact — never depend on map iteration order.
//
// Every keyword must be non-empty and already normalized, which rules out
// whitespace at either end. The scan never stops in the state a ' '
// transition reaches, so a keyword ending in whitespace would be missed;
// buildClassifier panics on one rather than compile a wrong table.
func buildClassifier(scheme map[catalog.Direction]map[string]float64) *Classifier {
	c := &Classifier{}
	h := sha256.New()
	for di, dir := range catalog.Directions() {
		kws := make([]string, 0, len(scheme[dir]))
		for kw := range scheme[dir] {
			if kw == "" || normalize(kw) != kw {
				panic(fmt.Sprintf("core: keyword %q is empty or not normalized", kw))
			}
			kws = append(kws, kw)
		}
		sort.Strings(kws)
		for _, kw := range kws {
			p := pattern{dir: int8(di), weight: scheme[dir][kw], kw: kw}
			c.pats = append(c.pats, p)
			fmt.Fprintf(h, "%d:%s:%g\n", p.dir, p.kw, p.weight)
		}
	}
	c.fingerprint = hex.EncodeToString(h.Sum(nil))

	// Byte classes: the keyword alphabet, numbered after the fixed columns.
	// Normalized keywords hold neither A-Z nor whitespace other than ' ',
	// so at most 224 bytes need a column and a uint8 holds every one.
	var col [256]uint8
	col[' '] = colSpace
	ncols := numFixedCols
	for _, p := range c.pats {
		for i := 0; i < len(p.kw); i++ {
			if b := p.kw[i]; col[b] == colOther {
				col[b] = uint8(ncols)
				ncols++
			}
		}
	}
	// An ASCII byte maps by the reference normalization applied to it
	// alone: to colSpace if normalize deletes it, else to the column of
	// the byte it becomes.
	for b := 0; b < 0x80; b++ {
		if lb := normalize(string(rune(b))); lb == "" {
			c.rawClass[b] = colSpace
		} else {
			c.rawClass[b] = col[lb[0]]
		}
		c.normClass[b] = c.rawClass[b]
	}
	for b := 0x80; b < 256; b++ {
		c.rawClass[b], c.normClass[b] = colNonASCII, col[b]
	}

	// The Aho-Corasick automaton over the classes, in a flat table of ncols
	// entries per state. The trie comes first (0 = no child; the root,
	// state 0, is never a child), then a BFS resolves failure transitions
	// in place and inherits outputs: fail(v) is always closer to the root,
	// so its row and output list are complete before v is processed.
	next := make([]int32, ncols)
	own := [][]int32{nil}
	for pid, p := range c.pats {
		s := 0
		for i := 0; i < len(p.kw); i++ {
			k := s*ncols + int(col[p.kw[i]])
			if next[k] == 0 {
				next[k] = int32(len(own))
				own = append(own, nil)
				next = append(next, make([]int32, ncols)...)
			}
			s = int(next[k])
		}
		own[s] = append(own[s], int32(pid))
	}
	n := len(own)
	fail := make([]int32, n)
	outs := make([][]int32, n)
	queue := make([]int32, 0, n)
	for k := 0; k < ncols; k++ {
		if ch := next[k]; ch != 0 {
			queue = append(queue, ch)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		f := fail[v]
		outs[v] = append(append([]int32{}, own[v]...), outs[f]...)
		for k := 0; k < ncols; k++ {
			i, fi := int(v)*ncols+k, int(f)*ncols+k
			if ch := next[i]; ch != 0 {
				fail[ch] = next[fi]
				queue = append(queue, ch)
			} else {
				next[i] = next[fi]
			}
		}
	}
	c.outStart = make([]int32, n+1)
	for q, o := range outs {
		c.outStart[q+1] = c.outStart[q] + int32(len(o))
		c.outPat = append(c.outPat, o...)
	}

	// The product table. Pending rows follow the n word rows: the root's
	// first, then one per other state a ' ' transition reaches.
	pendRow := make([]int32, n) // 0 = no pending row (row 0 is a word row)
	pending := []int32{0}
	pendRow[0] = int32(n)
	for q := 0; q < n; q++ {
		if p := next[q*ncols+colSpace]; pendRow[p] == 0 {
			pendRow[p] = int32(n + len(pending))
			pending = append(pending, p)
		}
	}
	c.shift = uint(bits.Len(uint(ncols - 1)))
	c.delta = make([]int32, (n+len(pending))<<c.shift)
	c.start = pendRow[0] << c.shift
	for r := range n + len(pending) {
		// Whitespace moves a word row to the pending row after its ' '
		// transition and leaves a pending row where it is.
		q, ws := int32(r), int32(r)
		if r < n {
			ws = pendRow[next[r*ncols+colSpace]]
		} else {
			q = pending[r-n]
		}
		row := c.delta[r<<c.shift : r<<c.shift+ncols]
		for k := range row {
			switch k {
			case colSpace:
				row[k] = ws << c.shift
			case colNonASCII:
				row[k] = nonASCII
			default:
				t := next[int(q)*ncols+k]
				if row[k] = t << c.shift; c.outStart[t+1] > c.outStart[t] {
					row[k] = ^row[k]
				}
			}
		}
	}
	return c
}

var (
	compiledOnce sync.Once
	compiled     *Classifier
)

// Compiled returns the process-wide classifier compiled from the study's
// weighted keyword scheme. The build runs once, on first use.
func Compiled() *Classifier {
	compiledOnce.Do(func() { compiled = buildClassifier(directionKeywords) })
	return compiled
}

// scan walks text through the product automaton from the start row,
// mapping bytes to columns through class, and records every pattern hit in
// s. It reports false, part way, when it meets a byte whose column is
// colNonASCII. The offset is a uint32 so that indexing needs no sign
// extension between the add and the load.
func scan[T string | []byte](c *Classifier, text T, class *[256]uint8, s *ClassifyScratch) bool {
	delta := c.delta
	off := uint32(c.start)
	for i := 0; i < len(text); i++ {
		e := delta[off+uint32(class[text[i]])]
		if e < 0 {
			if e == nonASCII {
				return false
			}
			e = ^e
			c.hit(e, s)
		}
		off = uint32(e)
	}
	return true
}

// hit records the patterns recognized on entering the word row at offset
// off, in output order, each once per document.
func (c *Classifier) hit(off int32, s *ClassifyScratch) {
	q := off >> c.shift
	for _, pid := range c.outPat[c.outStart[q]:c.outStart[q+1]] {
		if s.seen[pid] != s.epoch {
			s.seen[pid] = s.epoch
			s.fired = append(s.fired, pid)
			s.Scores[c.pats[pid].dir] += c.pats[pid].weight
		}
	}
}

// classify is ClassifyInto and ClassifyBytes: one pass over the raw bytes,
// or, on non-ASCII input, a second over the materialized normalized form.
// Both are marked go:noinline: inlined into another package, their call to
// this generic function loses its escape information, and the caller's
// scratch and buffer would move to the heap.
func classify[T string | []byte](c *Classifier, desc T, s *ClassifyScratch) int {
	s.begin(c)
	if !scan(c, desc, &c.rawClass, s) {
		s.begin(c)
		scan(c, normalize(string(desc)), &c.normClass, s)
	}
	w := winner(&s.Scores)
	s.nMatched = 0
	for _, pid := range s.fired {
		if int(c.pats[pid].dir) == w {
			s.nMatched++
		}
	}
	return w
}

// winner replicates the reference tie-break exactly: directions compete in
// canonical order under strict improvement, starting from Orchestration at
// score zero (the no-match fallback).
func winner(scores *[numDirections]float64) int {
	best := int(catalog.Orchestration.Index())
	bestScore := 0.0
	for d := 0; d < numDirections; d++ {
		if scores[d] > bestScore {
			best = d
			bestScore = scores[d]
		}
	}
	return best
}

// ClassifyInto classifies one description with zero steady-state
// allocations, returning the canonical index of the winning direction.
// Scores and the matched set of the winning direction are left in s
// (read them via s.Scores and MatchedAppend) until the next call.
//
//go:noinline
func (c *Classifier) ClassifyInto(desc string, s *ClassifyScratch) int {
	return classify(c, desc, s)
}

// ClassifyBytes is ClassifyInto over a byte slice — the corpus pipeline
// classifies descriptions straight out of reused generation buffers without
// converting them to strings. The scan never retains the slice.
//
//go:noinline
func (c *Classifier) ClassifyBytes(desc []byte, s *ClassifyScratch) int {
	return classify(c, desc, s)
}

// Matched reports how many distinct keywords of the winning direction the
// last classified document hit.
func (s *ClassifyScratch) Matched() int { return s.nMatched }

// MatchedAppend appends the distinct matched keywords of the winning
// direction w (as returned by the last ClassifyInto/ClassifyBytes) to dst
// in sorted order and returns the extended slice. With a capacious dst it
// does not allocate.
func (c *Classifier) MatchedAppend(dst []string, w int, s *ClassifyScratch) []string {
	n := len(dst)
	for _, pid := range s.fired {
		if int(c.pats[pid].dir) == w {
			dst = append(dst, c.pats[pid].kw)
		}
	}
	sort.Strings(dst[n:])
	return dst
}

// Patterns returns the number of compiled keywords.
func (c *Classifier) Patterns() int { return len(c.pats) }

// States returns the number of rows of the product automaton (diagnostics
// and tests).
func (c *Classifier) States() int { return len(c.delta) >> c.shift }

// SchemeFingerprint is the stable identity of the compiled keyword scheme:
// a SHA-256 over every (direction, keyword, weight) triple in canonical
// order, hashed once when the classifier is built. The corpus engine folds
// it into its per-shard memo keys, so editing directionKeywords invalidates
// every cached classification aggregate automatically — no manual version
// bump to forget.
func SchemeFingerprint() string { return Compiled().fingerprint }

// KeywordsFor returns the keyword list of one direction, sorted — the
// vocabulary seam the synthetic corpus generator plants signal from.
func KeywordsFor(d catalog.Direction) []string {
	kws := make([]string, 0, len(directionKeywords[d]))
	for kw := range directionKeywords[d] {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	return kws
}
