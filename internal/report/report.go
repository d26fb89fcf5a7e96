// Package report regenerates every table and figure of the paper from a
// Study, in multiple formats (ASCII/Markdown/CSV for tables, ASCII/SVG/CSV
// for figures), plus a complete textual study report. Each artifact carries
// the paper's numbering so experiment scripts can address "Table 2" or
// "Figure 3" directly.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/charts"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
)

// Table1 builds the paper's Table 1: collected tools classified in five
// research directions. Columns are directions; rows pad shorter columns
// with empty cells, mirroring the paper's layout.
func Table1(s *core.Study) *charts.Table {
	dirs := catalog.Directions()
	cols := make([][]string, len(dirs))
	maxLen := 0
	for i, d := range dirs {
		for _, t := range s.Catalog.ToolsByDirection(d) {
			cols[i] = append(cols[i], t.Name)
		}
		if len(cols[i]) > maxLen {
			maxLen = len(cols[i])
		}
	}
	tb := &charts.Table{Title: "Table 1: Collected tools classified in five research directions."}
	for _, d := range dirs {
		tb.Header = append(tb.Header, string(d))
	}
	for r := 0; r < maxLen; r++ {
		row := make([]string, len(dirs))
		for c := range dirs {
			if r < len(cols[c]) {
				row[c] = cols[c][r]
			}
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// Table2 builds the paper's Table 2: the application × tool integration
// matrix. Rows are tools grouped by research direction (first column holds
// the direction label on its group's first row, as in the paper); columns
// are application IDs; cells hold "✓" for a selection.
func Table2(s *core.Study) *charts.Table {
	m := s.Survey.Matrix()
	tb := &charts.Table{
		Title:     "Table 2: The list of collected scientific applications and the tools identified for integration.",
		Header:    append([]string{"Direction", "Tool"}, m.AppIDs...),
		RowGroups: map[int]string{},
	}
	row := 0
	for _, d := range catalog.Directions() {
		first := true
		for _, t := range s.Catalog.ToolsByDirection(d) {
			cells := make([]string, 0, len(m.AppIDs)+2)
			if first {
				cells = append(cells, string(d))
				tb.RowGroups[row] = string(d)
				first = false
			} else {
				cells = append(cells, "")
			}
			cells = append(cells, t.Name)
			sel := m.Row(t.Name)
			for c := range m.AppIDs {
				if sel[c] {
					cells = append(cells, "✓")
				} else {
					cells = append(cells, "")
				}
			}
			tb.Rows = append(tb.Rows, cells)
			row++
		}
	}
	return tb
}

// Table2Matrix builds the Table 2 data as an SVG-renderable incidence
// matrix (rows = tools colored by research direction, columns = apps).
func Table2Matrix(s *core.Study) *charts.Matrix {
	m := s.Survey.Matrix()
	out := &charts.Matrix{
		Title:     "Table 2 as incidence matrix: tools × applications",
		ColLabels: m.AppIDs,
	}
	for _, d := range catalog.Directions() {
		for _, t := range s.Catalog.ToolsByDirection(d) {
			out.RowLabels = append(out.RowLabels, t.Name)
			out.RowGroups = append(out.RowGroups, d.Index())
			out.Cells = append(out.Cells, m.Row(t.Name))
		}
	}
	return out
}

// Fig1 renders the Spoke 1 organizational picture (the paper's Figure 1)
// as structured text: flagships, living labs, leaders and participants.
func Fig1(s *core.Study) string {
	var b strings.Builder
	b.WriteString("Figure 1: Big picture of Spoke 1 - FutureHPC & Big Data\n\n")
	b.WriteString("Flagships:\n")
	for _, fl := range s.Catalog.Flagships {
		fmt.Fprintf(&b, "  %s) %s (coord. %s)\n", fl.ID, fl.Name, fl.Coordinator)
	}
	b.WriteString("\nICSC Spokes:\n")
	for _, sp := range s.Catalog.Spokes {
		fmt.Fprintf(&b, "  Spoke %2d — %s\n", sp.Number, sp.Name)
	}
	b.WriteString("\nParticipating institutions contributing tools to FL3:\n")
	ids := make([]string, 0, len(s.Catalog.Institutions))
	for _, in := range s.Catalog.Institutions {
		ids = append(ids, fmt.Sprintf("%s (%s)", in.ID, in.Name))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "  - %s\n", id)
	}
	return b.String()
}

// Fig2 builds the paper's Figure 2 pie chart: tool distribution over the
// five research directions (3/7/3/6/6).
func Fig2(s *core.Study) *charts.Pie {
	d := s.ToolDistribution()
	p := &charts.Pie{Title: "Figure 2: Tool distribution over the five identified research domains"}
	for _, dir := range catalog.Directions() {
		p.Slices = append(p.Slices, charts.Slice{Label: string(dir), Value: d.Count(string(dir))})
	}
	return p
}

// Fig3 builds the paper's Figure 3 histogram: how many research directions
// are covered by the tools of a single institution.
func Fig3(s *core.Study) *charts.BarChart {
	h := s.InstitutionCoverage()
	c := &charts.BarChart{
		Title:  "Figure 3: Research directions covered by the tools of a single institution",
		XLabel: "# Covered research directions",
		YLabel: "# Research institutions",
	}
	values, counts := h.Buckets(1, len(catalog.Directions()))
	for i, v := range values {
		c.Bars = append(c.Bars, charts.Bar{Label: fmt.Sprint(v), Value: counts[i]})
	}
	return c
}

// Fig4 builds the paper's Figure 4 pie chart: distribution of the tools
// selected for integration over the five research domains (4/11/1/6/6).
func Fig4(s *core.Study) (*charts.Pie, error) {
	d, err := s.VoteDistribution()
	if err != nil {
		return nil, err
	}
	p := &charts.Pie{Title: "Figure 4: Tools selected for integration over the five identified research domains"}
	for _, dir := range catalog.Directions() {
		p.Slices = append(p.Slices, charts.Slice{Label: string(dir), Value: d.Count(string(dir))})
	}
	return p, nil
}

// FigE1 builds the extension figure (not in the paper): tools per reference
// publication year — the bibliometric recency view behind the abstract's
// "still immature but promising" remark.
func FigE1(s *core.Study) *charts.BarChart {
	rep := s.Maturity()
	c := &charts.BarChart{
		Title:  "Extension figure E1: collected tools per reference publication year",
		XLabel: "Publication year",
		YLabel: "# Tools",
	}
	years := rep.Years()
	if len(years) == 0 {
		return c
	}
	for y := years[0]; y <= years[len(years)-1]; y++ {
		c.Bars = append(c.Bars, charts.Bar{Label: fmt.Sprint(y), Value: rep.YearCounts[y]})
	}
	return c
}

// section is one named unit of the report: one FullEnv shard, and so the
// unit of parallelism, of caching and of telemetry (each render is wrapped
// in a "report.section" span on the Env).
type section struct {
	// ID names the section in spans, cache keys and trace output. IDs are
	// part of the cache-key recipe: renaming one invalidates its artifact.
	ID     string
	Render func() (string, error)
}

// sections returns the report's render closures in the fixed section order.
func sections(s *core.Study) []section {
	return []section{
		{"protocol", func() (string, error) {
			var b strings.Builder
			b.WriteString("A Systematic Mapping Study of Italian Research on Workflows — reproduction report\n")
			b.WriteString(strings.Repeat("=", 82) + "\n\n")
			fmt.Fprintf(&b, "Scope: %s\n\nResearch questions:\n", s.Protocol.Scope)
			for _, q := range s.Protocol.Questions {
				fmt.Fprintf(&b, "  %s: %s\n", q.ID, q.Text)
			}
			fmt.Fprintf(&b, "\nDataset: %s\n\n", s.Catalog)
			return b.String(), nil
		}},
		{"fig1", func() (string, error) { return Fig1(s) + "\n", nil }},
		{"table1", func() (string, error) {
			t1, err := Table1(s).ASCII()
			if err != nil {
				return "", fmt.Errorf("report: table 1: %w", err)
			}
			return t1 + "\n", nil
		}},
		{"fig2", func() (string, error) {
			f2, err := Fig2(s).ASCII(40)
			if err != nil {
				return "", fmt.Errorf("report: figure 2: %w", err)
			}
			return f2 + "\n", nil
		}},
		{"fig3", func() (string, error) {
			f3, err := Fig3(s).ASCII()
			if err != nil {
				return "", fmt.Errorf("report: figure 3: %w", err)
			}
			return f3 + "\n", nil
		}},
		{"table2", func() (string, error) {
			t2, err := Table2(s).ASCII()
			if err != nil {
				return "", fmt.Errorf("report: table 2: %w", err)
			}
			return t2 + "\n", nil
		}},
		{"fig4", func() (string, error) {
			fig4, err := Fig4(s)
			if err != nil {
				return "", err
			}
			f4, err := fig4.ASCII(40)
			if err != nil {
				return "", fmt.Errorf("report: figure 4: %w", err)
			}
			return f4 + "\n", nil
		}},
		{"discussion", func() (string, error) {
			answers, err := s.Answers()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString("Discussion\n----------\n")
			for _, a := range answers {
				fmt.Fprintf(&b, "\n%s. %s\n%s\n", a.Question.ID, a.Question.Text, a.Summary)
				for _, f := range a.Findings {
					fmt.Fprintf(&b, "  - %s\n", f)
				}
			}
			return b.String(), nil
		}},
		{"validation", func() (string, error) {
			cm := core.EvaluateClassifier(s.Catalog)
			return fmt.Sprintf("\nClassification validation (keyword classifier vs manual labels): accuracy %.0f%%\n%s",
				cm.Accuracy()*100, cm), nil
		}},
		{"corpus", func() (string, error) { return corpusSectionText() }},
		{"maturity", func() (string, error) {
			var b strings.Builder
			b.WriteString("\nExtension: tool maturity (reference publication recency)\n")
			for _, line := range s.MaturitySummary() {
				fmt.Fprintf(&b, "  - %s\n", line)
			}
			return b.String(), nil
		}},
	}
}

// Full renders the complete study report: protocol, all tables and figures
// in ASCII form, and the synthesized answers to Q1–Q3. It is FullEnv on an
// environment with no store and no telemetry, whose worker pool opts
// configure; the output is byte-identical for any par.Workers(n).
func Full(s *core.Study, opts ...par.Option) (string, error) {
	full, _, err := FullEnv(s, &exp.Env{Par: opts})
	return full, err
}

// FullEnv renders the complete study report under an experiment
// environment. Each section is one shard of exp.MapShards in the "report"
// namespace: the sections are independent pure reads of the study, so they
// render concurrently on env's worker pool, each inside a "report.section"
// span, and join in the fixed section order — the bytes are identical for
// any worker count and any cache state. With env.Store set, a section is
// first looked up under sectionKey; a hit skips the render and its span, so
// a warm rebuild over an unchanged study renders nothing and the trace
// shows exactly what re-rendered. The stats give the render/hit split.
func FullEnv(s *core.Study, env *exp.Env) (string, exp.ShardStats, error) {
	secs := sections(s)
	// Only a store reads the keys, so the storeless build skips the
	// study fingerprint.
	var fp string
	if env.Store != nil {
		spec, err := Spec(s)
		if err != nil {
			return "", exp.ShardStats{}, err
		}
		if fp, err = spec.Fingerprint(); err != nil {
			return "", exp.ShardStats{}, err
		}
	}
	var b strings.Builder
	_, stats, err := exp.MapShards(env, "report", len(secs), 1,
		func(i, _, _ int) cas.Key { return sectionKey(fp, secs[i].ID) },
		func(i, _, _ int) (string, error) {
			sp := env.StartSpan("report.section", secs[i].ID)
			out, err := secs[i].Render()
			sp.End(err)
			return out, err
		},
		// MapShards folds in section order, so the fold appends each
		// section to one builder and leaves its own accumulator unused.
		func(_, sec *string) { b.WriteString(*sec) })
	if err != nil {
		return "", exp.ShardStats{}, err
	}
	return b.String(), stats, nil
}
