package survey

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

func recorded(t *testing.T) *Survey {
	t.Helper()
	s, err := Run(catalog.Default(), RecordedRespondent{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordedSurveyMatchesTable2(t *testing.T) {
	s := recorded(t)
	if got := len(s.Responses); got != 10 {
		t.Fatalf("responses = %d, want 10", got)
	}
	m := s.Matrix()
	if got := m.Checkmarks(); got != 28 {
		t.Errorf("checkmarks = %d, want 28", got)
	}
	if len(m.ToolNames) != 25 || len(m.AppIDs) != 10 {
		t.Errorf("matrix shape %dx%d, want 25x10", len(m.ToolNames), len(m.AppIDs))
	}
	// Spot-check cells from the paper's Table 2.
	if !selected(m, "StreamFlow", "3.3") {
		t.Error("StreamFlow×3.3 should be checked")
	}
	if !selected(m, "PESOS", "3.5") {
		t.Error("PESOS×3.5 should be checked")
	}
	if selected(m, "TORCH", "3.8") {
		t.Error("TORCH×3.8 should be empty")
	}
	if selected(m, "PESOS", "3.1") {
		t.Error("PESOS×3.1 should be empty")
	}
	if m.Row("NotATool") != nil {
		t.Error("unknown tool has a row")
	}
}

// selected reads one cell of the matrix by tool name and application ID.
func selected(m *Matrix, tool, app string) bool {
	col := slices.Index(m.AppIDs, app)
	row := m.Row(tool)
	return col >= 0 && row != nil && row[col]
}

func TestVotesByDirectionIsFig4(t *testing.T) {
	s := recorded(t)
	d, err := s.VotesByDirection()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		string(catalog.InteractiveComputing):   4,
		string(catalog.Orchestration):          11,
		string(catalog.EnergyEfficiency):       1,
		string(catalog.PerformancePortability): 6,
		string(catalog.BigDataManagement):      6,
	}
	for dir, n := range want {
		if got := d.Count(dir); got != n {
			t.Errorf("%s votes = %d, want %d", dir, got, n)
		}
	}
	if d.Total() != 28 {
		t.Errorf("total votes = %d, want 28", d.Total())
	}
	// The paper's Q3 observations: orchestration > 39%, energy < 3.6%.
	if share := d.Share(string(catalog.Orchestration)); share <= 0.39 {
		t.Errorf("orchestration share = %v, want > 0.39", share)
	}
	if share := d.Share(string(catalog.EnergyEfficiency)); share >= 0.036 {
		t.Errorf("energy share = %v, want < 0.036", share)
	}
}

func TestVotesByTool(t *testing.T) {
	s := recorded(t)
	votes := s.VotesByTool()
	if len(votes) != len(s.Catalog.Tools) {
		t.Fatalf("votes for %d tools, catalog has %d", len(votes), len(s.Catalog.Tools))
	}
	of := func(name string) int {
		i, err := s.Catalog.ToolIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		return votes[i]
	}
	if of("StreamFlow") != 3 {
		t.Errorf("StreamFlow votes = %d, want 3", of("StreamFlow"))
	}
	if of("BDMaaS+") != 2 {
		t.Errorf("BDMaaS+ votes = %d, want 2", of("BDMaaS+"))
	}
	if of("TORCH") != 0 {
		t.Errorf("TORCH votes = %d, want 0", of("TORCH"))
	}
}

func TestUnselectedTools(t *testing.T) {
	s := recorded(t)
	un := s.UnselectedTools()
	// 25 tools, 16 distinct tools voted for (count distinct in Table 2):
	// ICS, Jupyter Workflow, INDIGO, Liqo, StreamFlow, BDMaaS+, MoveQUIC,
	// PESOS, FastFlow, Nethuns, CAPIO, MLIR, ParSoDA, aMLLibrary, WindFlow,
	// Mingotti et al. → 9 unselected.
	if len(un) != 9 {
		t.Fatalf("unselected = %v (%d), want 9", un, len(un))
	}
	mustContain := []string{"TORCH", "SPF", "BookedSlurm", "MALAGA", "CHD",
		"BLEST-ML", "INSANE", "Lapegna et al.", "De Lucia et al."}
	set := map[string]bool{}
	for _, u := range un {
		set[u] = true
	}
	for _, m := range mustContain {
		if !set[m] {
			t.Errorf("expected %q unselected", m)
		}
	}
}

func TestAgreementBounds(t *testing.T) {
	c := catalog.Default()
	a, _ := Run(c, RecordedRespondent{})
	b, _ := Run(c, RecordedRespondent{})
	sim, err := Agreement(a, b)
	if err != nil || sim != 1 {
		t.Errorf("identical surveys agreement = %v, %v; want 1", sim, err)
	}

	// Dropping each application's first recorded tool leaves a subset of
	// the recorded votes: the intersection is what is kept and the union is
	// every recorded vote.
	drop := respondentFunc(func(app *catalog.Application, tools []catalog.Tool) (Response, error) {
		r := Response{ApplicationID: app.ID}
		if len(app.SelectedTools) > 0 {
			r.Tools = append(r.Tools, app.SelectedTools[1:]...)
		}
		return r, nil
	})
	partial, err := Run(c, drop)
	if err != nil {
		t.Fatal(err)
	}
	kept, all := 0, 0
	for _, app := range c.Applications {
		all += len(app.SelectedTools)
		kept += max(len(app.SelectedTools)-1, 0)
	}
	want := float64(kept) / float64(all)
	for _, pair := range [][2]*Survey{{a, partial}, {partial, a}} {
		sim, err := Agreement(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if sim != want {
			t.Errorf("partial agreement = %v, want %d/%d = %v", sim, kept, all, want)
		}
		if sim <= 0 || sim >= 1 {
			t.Errorf("partial agreement = %v, want in (0,1)", sim)
		}
	}
}

// Surveys over two catalogs compare position by position when the
// catalogs list the same tools and applications in the same order, and
// not at all otherwise.
func TestAgreementAcrossCatalogs(t *testing.T) {
	a, err := Run(catalog.Default(), RecordedRespondent{})
	if err != nil {
		t.Fatal(err)
	}
	if sim, err := Agreement(a, recorded(t)); err != nil || sim != 1 {
		t.Errorf("equal catalogs: agreement = %v, %v; want 1", sim, err)
	}
	c := catalog.Default()
	c.Tools[0], c.Tools[1] = c.Tools[1], c.Tools[0]
	b, err := Run(c, RecordedRespondent{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Agreement(a, b); err == nil {
		t.Error("catalogs with reordered tools compared")
	}
}

func TestRunValidatesResponses(t *testing.T) {
	c := catalog.Default()
	bad := respondentFunc(func(app *catalog.Application, tools []catalog.Tool) (Response, error) {
		return Response{ApplicationID: app.ID, Tools: []string{"NotATool"}}, nil
	})
	if _, err := Run(c, bad); err == nil {
		t.Error("unknown tool in response accepted")
	}
	dup := respondentFunc(func(app *catalog.Application, tools []catalog.Tool) (Response, error) {
		return Response{ApplicationID: app.ID, Tools: []string{"ICS", "ICS"}}, nil
	})
	if _, err := Run(c, dup); err == nil {
		t.Error("duplicate selection accepted")
	}
	if _, err := Run(nil, RecordedRespondent{}); err == nil {
		t.Error("nil catalog accepted")
	}
}

type respondentFunc func(*catalog.Application, []catalog.Tool) (Response, error)

func (f respondentFunc) Respond(a *catalog.Application, t []catalog.Tool) (Response, error) {
	return f(a, t)
}

func TestQuestionText(t *testing.T) {
	if !strings.Contains(Question, "Computing Continuum") {
		t.Error("survey question should reference the Computing Continuum")
	}
}
