package report

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/telemetry"
)

func study(t *testing.T) *core.Study {
	t.Helper()
	s, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(study(t))
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tb.Header) != 5 {
		t.Errorf("header columns = %d, want 5", len(tb.Header))
	}
	// Orchestration has 7 tools → 7 rows needed.
	if len(tb.Rows) != 7 {
		t.Errorf("rows = %d, want 7 (longest direction)", len(tb.Rows))
	}
	// Total non-empty cells must equal 25 tools.
	n := 0
	for _, r := range tb.Rows {
		for _, c := range r {
			if c != "" {
				n++
			}
		}
	}
	if n != 25 {
		t.Errorf("non-empty cells = %d, want 25", n)
	}
	ascii, err := tb.ASCII()
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"BookedSlurm", "TORCH", "PESOS", "FastFlow", "ParSoDA"} {
		if !strings.Contains(ascii, tool) {
			t.Errorf("Table 1 missing %q", tool)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2(study(t))
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tb.Header) != 12 { // direction + tool + 10 applications
		t.Errorf("header = %d, want 12", len(tb.Header))
	}
	if len(tb.Rows) != 25 {
		t.Errorf("rows = %d, want 25", len(tb.Rows))
	}
	checks := 0
	for _, r := range tb.Rows {
		for _, c := range r {
			if c == "✓" {
				checks++
			}
		}
	}
	if checks != 28 {
		t.Errorf("checkmarks = %d, want 28", checks)
	}
	// Group labels: exactly 5 direction labels in the first column.
	labels := 0
	for _, r := range tb.Rows {
		if r[0] != "" {
			labels++
		}
	}
	if labels != 5 {
		t.Errorf("direction labels = %d, want 5", labels)
	}
}

func TestFig1Content(t *testing.T) {
	s := Fig1(study(t))
	for _, want := range []string{"FL3", "Spoke 10", "UNIPI", "Quantum Computing"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestFig2Values(t *testing.T) {
	p := Fig2(study(t))
	if p.Total() != 25 {
		t.Errorf("Fig2 total = %d, want 25", p.Total())
	}
	want := []int{3, 7, 3, 6, 6}
	for i, sl := range p.Slices {
		if sl.Value != want[i] {
			t.Errorf("Fig2 slice %d = %d, want %d", i, sl.Value, want[i])
		}
	}
}

func TestFig3Values(t *testing.T) {
	c := Fig3(study(t))
	want := []int{5, 1, 2, 1, 0}
	if len(c.Bars) != 5 {
		t.Fatalf("bars = %d, want 5", len(c.Bars))
	}
	for i, b := range c.Bars {
		if b.Value != want[i] {
			t.Errorf("Fig3 bar %s = %d, want %d", b.Label, b.Value, want[i])
		}
	}
}

func TestFig4Values(t *testing.T) {
	p, err := Fig4(study(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 28 {
		t.Errorf("Fig4 total = %d, want 28", p.Total())
	}
	want := []int{4, 11, 1, 6, 6}
	for i, sl := range p.Slices {
		if sl.Value != want[i] {
			t.Errorf("Fig4 slice %d = %d, want %d", i, sl.Value, want[i])
		}
	}
}

func TestFullReport(t *testing.T) {
	out, err := Full(study(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Q1", "Q2", "Q3", "accuracy",
		"Orchestration dominates with 39.3%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("full report missing %q", want)
		}
	}
	// Determinism: two renders must be identical.
	out2, err := Full(study(t))
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Error("full report not deterministic")
	}
}

func TestArtifactsRenderAllFormats(t *testing.T) {
	s := study(t)
	if _, err := Table1(s).Markdown(); err != nil {
		t.Error(err)
	}
	if _, err := Table1(s).CSV(); err != nil {
		t.Error(err)
	}
	if _, err := Table2(s).Markdown(); err != nil {
		t.Error(err)
	}
	if _, err := Fig2(s).SVG(320); err != nil {
		t.Error(err)
	}
	if _, err := Fig3(s).SVG(480, 320); err != nil {
		t.Error(err)
	}
	f4, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f4.SVG(320); err != nil {
		t.Error(err)
	}
	if _, err := f4.CSV(); err != nil {
		t.Error(err)
	}
}

func TestTable2Matrix(t *testing.T) {
	m := Table2Matrix(study(t))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.RowLabels) != 25 || len(m.ColLabels) != 10 {
		t.Errorf("matrix shape %dx%d", len(m.RowLabels), len(m.ColLabels))
	}
	if m.Count() != 28 {
		t.Errorf("checkmarks = %d, want 28", m.Count())
	}
	svg, err := m.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "StreamFlow × 3.3") {
		t.Error("missing known incidence tooltip")
	}
}

// The golden test locks the complete reproduction output: any change to the
// study data, the analysis, or the renderers that alters a reproduced
// number fails here. Regenerate deliberately with:
//
//	go run ./cmd/smsreport > internal/report/testdata/report_golden.txt
func TestFullReportGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/report_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Full(study(t))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		// Find the first divergent line for a useful message.
		gl := strings.Split(string(golden), "\n")
		ol := strings.Split(got, "\n")
		for i := 0; i < len(gl) && i < len(ol); i++ {
			if gl[i] != ol[i] {
				t.Fatalf("report diverged from golden at line %d:\n golden: %q\n got:    %q", i+1, gl[i], ol[i])
			}
		}
		t.Fatalf("report length diverged: %d vs %d lines", len(ol), len(gl))
	}
}

// Property: the parallel section renderer is byte-identical to the
// sequential one for any worker count (and to the golden file, via
// TestFullReportGolden).
func TestFullReportParallelMatchesSequential(t *testing.T) {
	s := study(t)
	want, err := Full(s, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Full(s, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Workers(%d) report differs from sequential render", workers)
		}
	}
}

func BenchmarkReportFullSeq(b *testing.B) { benchFull(b, par.Workers(1)) }
func BenchmarkReportFullPar(b *testing.B) { benchFull(b) }

func benchFull(b *testing.B, opts ...par.Option) {
	s, err := core.Default()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Full(s, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFigE1(t *testing.T) {
	c := FigE1(study(t))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range c.Bars {
		total += b.Value
	}
	if total != 22 { // 25 tools − 3 unpublished
		t.Errorf("dated tools in E1 = %d, want 22", total)
	}
	// Contiguous year axis.
	if c.Bars[0].Label != "2017" || c.Bars[len(c.Bars)-1].Label != "2023" {
		t.Errorf("year range %s..%s", c.Bars[0].Label, c.Bars[len(c.Bars)-1].Label)
	}
}

// Per-section telemetry: every rendered section emits exactly one
// "report.section" span, on the storeless and the cold-store builds alike,
// and a warm build emits none (hits skip the render bodies entirely).
func TestSectionSpansVisibleInTrace(t *testing.T) {
	s := study(t)
	plain, err := Full(s)
	if err != nil {
		t.Fatal(err)
	}
	store := cas.NewMemStore()
	for _, c := range []struct {
		name  string
		store cas.Store
		spans int // report.section spans per section
	}{
		{"storeless", nil, 1},
		{"cold store", store, 1},
		{"warm store", store, 0},
	} {
		sim := clock.NewSim(1)
		env := &exp.Env{Clock: sim, Metrics: telemetry.NewWithClock(sim), Store: c.store}
		full, _, err := FullEnv(s, env)
		if err != nil {
			t.Fatal(err)
		}
		if full != plain {
			t.Fatalf("%s: FullEnv bytes diverge from Full", c.name)
		}
		count, total := map[string]int{}, 0
		for _, sp := range env.Metrics.Spans() {
			if sp.Kind == "report.section" {
				count[sp.Name]++
				total++
			}
		}
		secs := sections(s)
		for _, sec := range secs {
			if count[sec.ID] != c.spans {
				t.Errorf("%s: section %s has %d report.section spans, want %d", c.name, sec.ID, count[sec.ID], c.spans)
			}
		}
		if total != len(secs)*c.spans {
			t.Errorf("%s: %d report.section spans, want %d", c.name, total, len(secs)*c.spans)
		}
	}
}

// The report experiment produces the same bytes as Full with and without a
// store on the Env.
func TestReportExperiment(t *testing.T) {
	s := study(t)
	e, err := Experiment(s)
	if err != nil {
		t.Fatal(err)
	}
	reg := exp.NewRegistry()
	if err := reg.Register(e); err != nil {
		t.Fatal(err)
	}
	plain, err := Full(s)
	if err != nil {
		t.Fatal(err)
	}
	env := &exp.Env{Seed: 3, Clock: clock.NewSim(1)}
	res, err := reg.Run(context.Background(), env, ExperimentName)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts["report.txt"] != plain {
		t.Error("uncached experiment bytes diverge from Full")
	}
	env.Store = cas.NewMemStore()
	res, err = reg.Run(context.Background(), env, ExperimentName)
	if err != nil {
		t.Fatal(err)
	}
	if res.Artifacts["report.txt"] != plain {
		t.Error("cached experiment bytes diverge from Full")
	}
}
