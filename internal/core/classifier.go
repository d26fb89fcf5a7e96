package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// This file implements the classification step of the mapping study. The
// paper classified tools manually; here the manual labels live in the
// catalog, and a transparent keyword classifier reproduces the step
// mechanically so it can be validated (accuracy, confusion matrix) and
// reused on new tool descriptions.

// directionKeywords maps each research direction to weighted indicator
// terms. Terms are matched case-insensitively as substrings of the
// description after normalization. Weights let strongly diagnostic terms
// (e.g. "jupyter" → interactive computing) dominate generic ones.
var directionKeywords = map[catalog.Direction]map[string]float64{
	catalog.InteractiveComputing: {
		"jupyter": 3, "notebook": 3, "interactive": 3, "reservation": 2,
		"calendar": 2, "on-demand": 1.5, "web": 1, "cell": 1.5, "kernel": 1.5,
	},
	catalog.Orchestration: {
		"orchestrat": 3, "deploy": 2, "placement": 2, "tosca": 2.5,
		"multi-cloud": 2, "multi-cluster": 2, "federation": 2.5, "kubernetes": 2,
		"migration": 2.5, "fog": 2, "service": 1, "decision support": 2,
		"workflow management": 1.5, "provisioning": 1.5, "peering": 2,
	},
	catalog.EnergyEfficiency: {
		"energy": 3, "power": 2, "low-power": 2.5, "carbon": 3,
		"footprint": 2, "consolidat": 2, "green": 2, "sensor device": 1.5,
	},
	catalog.PerformancePortability: {
		"portab": 3, "abstraction": 2, "programming model": 2.5,
		"intermediate representation": 3, "compiler": 2.5, "posix": 2,
		"middleware": 1.5, "shared-memory": 2, "distributed-memory": 2,
		"network function": 2, "block size": 2, "backend": 1.5, "i/o": 1.5,
		"user-space": 1.5, "rdma": 2, "kernel-bypass": 2, "llvm": 2.5,
	},
	catalog.BigDataManagement: {
		"data mining": 3, "big data": 3, "analytics": 2.5, "stream processing": 3,
		"hadoop": 2.5, "regression": 2, "automl": 2.5, "clustering": 2,
		"graph data": 2.5, "hotspot": 2, "measurement": 1.5, "java": 1,
		"python": 1, "windowed": 2, "gpu": 1, "real-time simulator": 2,
	},
}

// Classification is the outcome of classifying one description.
type Classification struct {
	Direction catalog.Direction
	// Scores holds the per-direction match score (higher = stronger match).
	Scores map[catalog.Direction]float64
	// Matched lists the keywords that fired for the winning direction.
	Matched []string
}

// normalize lowercases and collapses whitespace for matching.
func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// scratchPool recycles ClassifyScratch values across ClassifyDescription
// calls so the convenience API allocates only its result maps, not the
// kernel state.
var scratchPool = sync.Pool{New: func() any { return new(ClassifyScratch) }}

// ClassifyDescription assigns a research direction to a free-text tool
// description using the weighted keyword scheme. Ties resolve in canonical
// direction order. A description matching no keywords is classified into
// Orchestration, the study's broadest category, with zero scores recorded.
//
// This is the convenience form: it drives the compiled automaton (Compiled)
// and materializes the maps the original API promised — byte-identical to
// the seed strings.Contains implementation (pinned by the classifier
// golden). Bulk paths classify through Classifier.ClassifyInto with a
// reused ClassifyScratch instead, which allocates nothing per document.
func ClassifyDescription(desc string) Classification {
	c := Compiled()
	s := scratchPool.Get().(*ClassifyScratch)
	w := c.ClassifyInto(desc, s)
	nonzero := 0
	for _, sc := range s.Scores {
		if sc != 0 {
			nonzero++
		}
	}
	scores := make(map[catalog.Direction]float64, nonzero)
	for d, sc := range s.Scores {
		if sc != 0 {
			scores[catalog.Directions()[d]] = sc
		}
	}
	var kws []string
	if s.Matched() > 0 {
		kws = c.MatchedAppend(make([]string, 0, s.Matched()), w, s)
	}
	scratchPool.Put(s)
	return Classification{Direction: catalog.Directions()[w], Scores: scores, Matched: kws}
}

// classifyDescriptionRef is the pre-automaton reference: the seed
// strings.Contains scan with the small-scale waste fixed — the matched map
// for losing directions is gone (the winner's keywords are re-collected in
// a second pass over one direction only) and Scores is pre-sized. It
// remains the semantic oracle for the equivalence tests and the baseline
// the kernel benchmark measures the automaton against.
func classifyDescriptionRef(desc string) Classification {
	text := normalize(desc)
	scores := make(map[catalog.Direction]float64, 5)
	for dir, kws := range directionKeywords {
		for kw, w := range kws {
			if strings.Contains(text, kw) {
				scores[dir] += w
			}
		}
	}
	best := catalog.Orchestration
	bestScore := 0.0
	for _, dir := range catalog.Directions() {
		if scores[dir] > bestScore {
			best = dir
			bestScore = scores[dir]
		}
	}
	var matched []string
	for kw := range directionKeywords[best] {
		if strings.Contains(text, kw) {
			matched = append(matched, kw)
		}
	}
	sort.Strings(matched)
	return Classification{Direction: best, Scores: scores, Matched: matched}
}

// ConfusionMatrix counts classifier outcomes against manual labels.
// Rows are true (manual) directions, columns predicted directions.
type ConfusionMatrix struct {
	Counts map[catalog.Direction]map[catalog.Direction]int
	Total  int
}

// Accuracy returns the fraction of correctly classified tools.
func (m *ConfusionMatrix) Accuracy() float64 {
	if m.Total == 0 {
		return 0
	}
	correct := 0
	for d, row := range m.Counts {
		correct += row[d]
	}
	return float64(correct) / float64(m.Total)
}

// String renders the matrix compactly with directions abbreviated to their
// initials.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "t\\p")
	for _, d := range catalog.Directions() {
		fmt.Fprintf(&b, "%5s", d.Initials())
	}
	b.WriteByte('\n')
	for _, d := range catalog.Directions() {
		fmt.Fprintf(&b, "%-6s", d.Initials())
		for _, p := range catalog.Directions() {
			fmt.Fprintf(&b, "%5d", m.Counts[d][p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// EvaluateClassifier runs the keyword classifier over every tool in the
// catalog and compares predictions with the manual labels.
func EvaluateClassifier(c *catalog.Catalog) *ConfusionMatrix {
	m := &ConfusionMatrix{Counts: map[catalog.Direction]map[catalog.Direction]int{}}
	for _, d := range catalog.Directions() {
		m.Counts[d] = map[catalog.Direction]int{}
	}
	for _, t := range c.Tools {
		pred := ClassifyDescription(t.Description)
		m.Counts[t.Direction][pred.Direction]++
		m.Total++
	}
	return m
}
