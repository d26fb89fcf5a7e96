package core

import "fmt"

// The word-stride table: the product automaton read a word at a time.
//
// A generated corpus entry is a sequence of vocabulary words joined by
// single spaces. Because every word is normalized ASCII, the byte walk of
// such a text never leaves the raw pass, and what it does over one word and
// the ' ' after it depends only on the row it starts in and on the word.
// It starts in a pending row (the start row is the root's pending row) and
// ends in one, since a ' ' moves every word row to a pending row. So the
// walk over any sequence of the vocabulary's words visits only the pending
// rows reachable from the start row by word-plus-space steps, and a table
// with one step per (such row, word) replays it: the row the step ends in,
// and the patterns the byte walk recognizes on the way, in the order it
// recognizes them. Firing them in that order keeps the float Scores sums
// bit-identical to the byte walk's. The ' ' itself recognizes nothing, so
// the last word's step, whose ' ' the text does not have, fires the same
// patterns.

// WordID names a word of a WordTable's vocabulary: its index in the list
// the table was compiled from.
type WordID uint16

// maxWords is how many words a WordID can name.
const maxWords = 1 << 16

// WordTable is the word-stride form of a Classifier over one vocabulary.
// Begin, then Step once per word, then End classify the words joined by
// single spaces exactly as ClassifyInto classifies that text, without the
// text. Like the Classifier it only reads its tables, so one WordTable
// serves any number of goroutines, each with its own ClassifyScratch.
type WordTable struct {
	c *Classifier
	n int32
	// steps holds one step per (pending row, word): the row discovered
	// r-th from the start row is steps[r*n : (r+1)*n], indexed by WordID.
	steps []wordStep
	pids  []int32
}

// wordStep is the byte walk over one word and a ' ' from one pending row.
type wordStep struct {
	// next is the index in steps of the first step of the row it ends in.
	next int32
	// pids[lo:hi] are the patterns it recognizes, in the walk's order.
	lo, hi int32
}

// CompileWords builds the word-stride table of words over c. Every word
// must be non-empty, normalized (normalize(w) == w, so no upper case and
// no whitespace but single inner spaces) and ASCII, or the table would
// replay a walk the text does not take; CompileWords panics on such a word
// and on more words than a WordID can name, like buildClassifier on a bad
// keyword.
func (c *Classifier) CompileWords(words []string) *WordTable {
	if len(words) > maxWords {
		panic(fmt.Sprintf("core: %d words, more than a WordID can name (%d)", len(words), maxWords))
	}
	for _, w := range words {
		if w == "" || normalize(w) != w || !isASCII(w) {
			panic(fmt.Sprintf("core: word %q is empty, not normalized or not ASCII", w))
		}
	}
	t := &WordTable{c: c, n: int32(len(words))}
	rows := []int32{c.start} // pending row offsets, in order of discovery
	index := map[int32]int32{c.start: 0}
	for r := 0; r < len(rows); r++ {
		for _, w := range words {
			lo := int32(len(t.pids))
			off := rows[r]
			for i := 0; i < len(w); i++ {
				e := c.delta[off+int32(c.rawClass[w[i]])]
				if e < 0 {
					e = ^e
					t.pids = append(t.pids, c.recognized(e)...)
				}
				off = e
			}
			end := c.delta[off+colSpace]
			next, seen := index[end]
			if !seen {
				next = int32(len(rows))
				index[end] = next
				rows = append(rows, end)
			}
			t.steps = append(t.steps, wordStep{next: next * t.n, lo: lo, hi: int32(len(t.pids))})
		}
	}
	return t
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// Begin resets s for a new word sequence.
func (t *WordTable) Begin(s *ClassifyScratch) {
	s.begin(t.c)
	s.at = 0
}

// Step feeds the sequence's next word. It panics on an ID outside the
// vocabulary.
func (t *WordTable) Step(w WordID, s *ClassifyScratch) {
	st := t.steps[s.at : s.at+t.n][w]
	if st.lo != st.hi {
		t.c.fire(t.pids[st.lo:st.hi], s)
	}
	s.at = st.next
}

// End finishes the sequence and returns the canonical index of the winning
// direction; s holds the scores and matched set as after ClassifyInto.
func (t *WordTable) End(s *ClassifyScratch) int { return t.c.finish(s) }
