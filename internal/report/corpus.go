package report

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/charts"
	"repro/internal/corpus"
	"repro/internal/exp"
)

// Corpus-scale validation section: the catalog's 25 tools validate the
// classifier anecdotally; this section validates it at scale, classifying
// a fixed synthetic corpus through the same compiled automaton and
// rendering the exact-integer confusion aggregate. Both knobs are
// constants — the section is a pure function of the corpus engine, so the
// report stays byte-identical across worker counts, cache states, and Env
// seeds (the plain render and -run report.full must agree byte for byte).
const (
	corpusSectionN    = 2048
	corpusSectionSeed = 97
)

// CorpusAggregate classifies the report's fixed synthetic corpus and
// returns its confusion/accuracy aggregate. The aggregate is bit-identical
// for any worker count by construction (exact-integer merges in shard
// order).
func CorpusAggregate() (*corpus.Aggregate, error) {
	g := corpus.NewGenerator(corpus.DefaultSpec(corpusSectionN), corpusSectionSeed)
	agg, _, err := corpus.ClassifyAll(&exp.Env{Seed: corpusSectionSeed}, g)
	return agg, err
}

// CorpusTable renders the corpus confusion counts as a table: rows are
// true directions, columns predicted directions, plus per-direction totals.
func CorpusTable(a *corpus.Aggregate) *charts.Table {
	dirs := catalog.Directions()
	tb := &charts.Table{
		Title:  fmt.Sprintf("Corpus-scale confusion matrix (%d synthetic entries)", a.Total),
		Header: []string{"true \\ predicted"},
	}
	for _, d := range dirs {
		tb.Header = append(tb.Header, d.Initials())
	}
	tb.Header = append(tb.Header, "total")
	for t, d := range dirs {
		row := []string{string(d)}
		for p := range dirs {
			row = append(row, fmt.Sprint(a.Confusion[t][p]))
		}
		row = append(row, fmt.Sprint(a.TrueCount(t)))
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// CorpusIncidence renders the confusion structure as a boolean incidence
// matrix (which true→predicted cells are populated at all) — the
// SVG-renderable companion of CorpusTable, mirroring how Table2Matrix
// complements Table2.
func CorpusIncidence(a *corpus.Aggregate) *charts.Matrix {
	dirs := catalog.Directions()
	m := &charts.Matrix{
		Title: fmt.Sprintf("Corpus confusion incidence (%d synthetic entries)", a.Total),
	}
	for _, d := range dirs {
		m.ColLabels = append(m.ColLabels, d.Initials())
	}
	for t, d := range dirs {
		m.RowLabels = append(m.RowLabels, string(d))
		m.RowGroups = append(m.RowGroups, d.Index())
		row := make([]bool, len(dirs))
		for p := range dirs {
			row[p] = a.Confusion[t][p] > 0
		}
		m.Cells = append(m.Cells, row)
	}
	return m
}

// corpusSectionText renders the report's corpus-scale validation section:
// the confusion table, the accuracy line, and the incidence summary.
func corpusSectionText() (string, error) {
	agg, err := CorpusAggregate()
	if err != nil {
		return "", fmt.Errorf("report: corpus section: %w", err)
	}
	tbl, err := CorpusTable(agg).ASCII()
	if err != nil {
		return "", fmt.Errorf("report: corpus table: %w", err)
	}
	inc := CorpusIncidence(agg)
	if err := inc.Validate(); err != nil {
		return "", fmt.Errorf("report: corpus incidence: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nExtension: corpus-scale classifier validation (%d entries, seed %d)\n",
		corpusSectionN, corpusSectionSeed)
	b.WriteString(tbl)
	fmt.Fprintf(&b, "\naccuracy: %.4f (%d/%d correct, %d misclassified)\n",
		agg.Accuracy(), agg.Correct(), agg.Total, agg.Total-agg.Correct())
	fmt.Fprintf(&b, "confusion incidence: %d of %d true→predicted cells populated\n",
		inc.Count(), len(inc.RowLabels)*len(inc.ColLabels))
	return b.String(), nil
}
