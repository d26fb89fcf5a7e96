package core

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// directionCounts returns d's counts in the canonical direction order.
func directionCounts(d *stats.CategoricalDist) []int {
	var out []int
	for _, dir := range catalog.Directions() {
		out = append(out, d.Count(string(dir)))
	}
	return out
}

func study(t *testing.T) *Study {
	t.Helper()
	s, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuestions(t *testing.T) {
	qs := Questions()
	if len(qs) != 3 {
		t.Fatalf("questions = %d, want 3", len(qs))
	}
	if qs[0].ID != "Q1" || qs[2].ID != "Q3" {
		t.Error("question IDs out of order")
	}
}

func TestDefaultProtocol(t *testing.T) {
	p := DefaultProtocol()
	if len(p.InclusionCriteria) == 0 || len(p.Questions) != 3 {
		t.Error("protocol incomplete")
	}
	if !strings.Contains(p.Scope, "ICSC") {
		t.Error("scope should reference ICSC")
	}
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(nil); err == nil {
		t.Error("nil catalog accepted")
	}
	bad := catalog.Default()
	bad.Tools[0].Direction = "bogus"
	if _, err := NewStudy(bad); err == nil {
		t.Error("invalid catalog accepted")
	}
}

// Figure 2 exact reproduction.
func TestToolDistributionFig2(t *testing.T) {
	d := study(t).ToolDistribution()
	want := []int{3, 7, 3, 6, 6}
	got := directionCounts(d)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fig2[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if d.Total() != 25 {
		t.Errorf("total = %d, want 25", d.Total())
	}
}

// Figure 4 exact reproduction.
func TestVoteDistributionFig4(t *testing.T) {
	d, err := study(t).VoteDistribution()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 11, 1, 6, 6}
	got := directionCounts(d)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fig4[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if d.Total() != 28 {
		t.Errorf("total = %d, want 28", d.Total())
	}
}

// Figure 3 exact reproduction.
func TestInstitutionCoverageFig3(t *testing.T) {
	h := study(t).InstitutionCoverage()
	_, counts := h.Buckets(1, 5)
	want := []int{5, 1, 2, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("Fig3 bucket %d = %d, want %d", i+1, counts[i], want[i])
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 9 || h.Count(0) != 0 {
		t.Errorf("institutions = %d (and %d covering none), want 9", total, h.Count(0))
	}
}

func TestAnswerQ1(t *testing.T) {
	a := study(t).AnswerQ1()
	if a.Question.ID != "Q1" {
		t.Error("wrong question")
	}
	if !strings.Contains(a.Summary, "5 main research directions") {
		t.Errorf("Q1 summary = %q", a.Summary)
	}
	if len(a.Findings) != 5 {
		t.Errorf("Q1 findings = %d, want 5", len(a.Findings))
	}
	if !strings.Contains(a.Findings[1], "Orchestration: 7") {
		t.Errorf("Q1 finding[1] = %q", a.Findings[1])
	}
}

func TestAnswerQ2(t *testing.T) {
	a := study(t).AnswerQ2()
	if !strings.Contains(a.Summary, "5 of 9 institutions") {
		t.Errorf("Q2 summary = %q", a.Summary)
	}
	// The tool distribution is quite balanced: balance above 0.9.
	d := study(t).ToolDistribution()
	if d.Balance() < 0.9 {
		t.Errorf("Fig2 balance = %v, paper describes it as balanced", d.Balance())
	}
}

func TestAnswerQ3(t *testing.T) {
	a, err := study(t).AnswerQ3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Summary, "Orchestration dominates with 39.3%") {
		t.Errorf("Q3 summary = %q", a.Summary)
	}
	if !strings.Contains(a.Summary, "Energy efficiency") {
		t.Errorf("Q3 summary should name the least-voted direction: %q", a.Summary)
	}
	found := false
	for _, f := range a.Findings {
		if strings.Contains(f, "imbalance") && strings.Contains(f, "11.0") {
			found = true
		}
	}
	if !found {
		t.Errorf("Q3 findings missing 11x imbalance: %v", a.Findings)
	}
}

func TestAnswersOrder(t *testing.T) {
	as, err := study(t).Answers()
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 || as[0].Question.ID != "Q1" || as[2].Question.ID != "Q3" {
		t.Error("answers out of order")
	}
}

func TestCrossDirectionGap(t *testing.T) {
	gap, err := study(t).CrossDirectionGap()
	if err != nil {
		t.Fatal(err)
	}
	// Orchestration: demand 11/28 ≈ 39.3% vs supply 7/25 = 28% → positive.
	if gap[catalog.Orchestration] <= 0 {
		t.Errorf("orchestration gap = %v, want positive (under-supplied)", gap[catalog.Orchestration])
	}
	// Energy: demand 1/28 ≈ 3.6% vs supply 3/25 = 12% → negative.
	if gap[catalog.EnergyEfficiency] >= 0 {
		t.Errorf("energy gap = %v, want negative (over-supplied)", gap[catalog.EnergyEfficiency])
	}
	var sum float64
	for _, g := range gap {
		sum += g
	}
	if sum > 1e-9 || sum < -1e-9 {
		t.Errorf("gaps should sum to 0, got %v", sum)
	}
}

func TestClassifyDescription(t *testing.T) {
	cases := []struct {
		desc string
		want catalog.Direction
	}{
		{"A Jupyter notebook kernel for interactive distributed cells", catalog.InteractiveComputing},
		{"TOSCA-based orchestrator deploying multi-cloud applications", catalog.Orchestration},
		{"Minimizing the energy footprint via VM consolidation under QoS", catalog.EnergyEfficiency},
		{"A portable programming model abstraction over shared-memory backends", catalog.PerformancePortability},
		{"Parallel data mining and big data analytics on Hadoop", catalog.BigDataManagement},
	}
	for _, c := range cases {
		got := ClassifyDescription(c.desc)
		if got.Direction != c.want {
			t.Errorf("ClassifyDescription(%q) = %s (scores %v), want %s",
				c.desc, got.Direction, got.Scores, c.want)
		}
		if len(got.Matched) == 0 {
			t.Errorf("no matched keywords for %q", c.desc)
		}
	}
}

func TestClassifyEmptyDescription(t *testing.T) {
	got := ClassifyDescription("")
	if got.Direction != catalog.Orchestration {
		t.Errorf("empty description → %s, want fallback Orchestration", got.Direction)
	}
	if len(got.Matched) != 0 {
		t.Errorf("empty description matched %v", got.Matched)
	}
}

// The keyword classifier must reproduce the manual classification well:
// the mapping step of the paper is only mechanizable if descriptions carry
// the signal. We require >= 80% accuracy over the 25 tools.
func TestClassifierAccuracyOnCatalog(t *testing.T) {
	m := EvaluateClassifier(catalog.Default())
	if m.Total != 25 {
		t.Fatalf("classified %d tools, want 25", m.Total)
	}
	if acc := m.Accuracy(); acc < 0.8 {
		t.Errorf("classifier accuracy = %.2f, want >= 0.8\nconfusion:\n%s", acc, m)
	}
}

func TestConfusionMatrixString(t *testing.T) {
	m := EvaluateClassifier(catalog.Default())
	s := m.String()
	if !strings.Contains(s, "IC") || !strings.Contains(s, "BDM") {
		t.Errorf("confusion matrix rendering:\n%s", s)
	}
}

func TestConfusionMatrixEmptyAccuracy(t *testing.T) {
	m := &ConfusionMatrix{Counts: map[catalog.Direction]map[catalog.Direction]int{}}
	if m.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
}

func TestMaturityAnalysis(t *testing.T) {
	rep := study(t).Maturity()
	dated := 0
	for _, n := range rep.YearCounts {
		dated += n
	}
	if dated+rep.Unpublished != 25 {
		t.Errorf("dated %d + unpublished %d != 25 tools", dated, rep.Unpublished)
	}
	if rep.Unpublished != 3 { // BookedSlurm, SPF, MALAGA
		t.Errorf("unpublished = %d, want 3", rep.Unpublished)
	}
	// Years plausible: all within the study's horizon.
	for _, y := range rep.Years() {
		if y < 2015 || y > 2023 {
			t.Errorf("implausible year %d", y)
		}
	}
	// Every direction has a median (all have at least one dated tool).
	for _, d := range catalog.Directions() {
		if rep.MedianYear[d] == 0 {
			t.Errorf("no median year for %s", d)
		}
	}
	summary := study(t).MaturitySummary()
	if len(summary) != 6 {
		t.Errorf("summary lines = %d", len(summary))
	}
}
