package catalog

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default catalog invalid: %v", err)
	}
}

// The paper's headline numbers: 25 tools, 10 applications, 9 institutions.
func TestPaperCardinalities(t *testing.T) {
	c := Default()
	if got := len(c.Tools); got != 25 {
		t.Errorf("tools = %d, want 25", got)
	}
	if got := len(c.Applications); got != 10 {
		t.Errorf("applications = %d, want 10", got)
	}
	if got := len(c.Institutions); got != 9 {
		t.Errorf("institutions = %d, want 9", got)
	}
	if got := len(c.Spokes); got != 11 {
		t.Errorf("spokes = %d, want 11", got)
	}
	if got := len(c.Flagships); got != 5 {
		t.Errorf("flagships = %d, want 5", got)
	}
}

// Figure 2: tool distribution 3/7/3/6/6 over the five directions.
func TestTable1Distribution(t *testing.T) {
	c := Default()
	want := map[Direction]int{
		InteractiveComputing:   3,
		Orchestration:          7,
		EnergyEfficiency:       3,
		PerformancePortability: 6,
		BigDataManagement:      6,
	}
	for d, n := range want {
		if got := len(c.ToolsByDirection(d)); got != n {
			t.Errorf("%s tools = %d, want %d", d, got, n)
		}
	}
}

// Table 2: the exact checkmarks, 28 in total.
func TestTable2Selections(t *testing.T) {
	c := Default()
	want := map[string][]string{
		"3.1":  {"FastFlow", "ParSoDA", "WindFlow"},
		"3.2":  {"ICS", "Jupyter Workflow", "StreamFlow", "Nethuns", "CAPIO"},
		"3.3":  {"StreamFlow"},
		"3.4":  {"INDIGO", "Liqo", "MoveQUIC"},
		"3.5":  {"MoveQUIC", "PESOS"},
		"3.6":  {"Nethuns", "CAPIO"},
		"3.7":  {"Jupyter Workflow", "BDMaaS+", "aMLLibrary", "Mingotti et al."},
		"3.8":  {"INDIGO", "Liqo", "BDMaaS+"},
		"3.9":  {"ICS", "ParSoDA", "aMLLibrary"},
		"3.10": {"StreamFlow", "MLIR"},
	}
	for id, tools := range want {
		i, err := c.ApplicationIndex(id)
		if err != nil {
			t.Fatalf("application %s: %v", id, err)
		}
		app := c.Applications[i]
		if len(app.SelectedTools) != len(tools) {
			t.Errorf("app %s selections = %v, want %v", id, app.SelectedTools, tools)
			continue
		}
		sel := map[string]bool{}
		for _, s := range app.SelectedTools {
			sel[s] = true
		}
		for _, tool := range tools {
			if !sel[tool] {
				t.Errorf("app %s missing selection %q", id, tool)
			}
		}
	}
	if got := totalSelections(c); got != 28 {
		t.Errorf("total selections = %d, want 28", got)
	}
}

// Figure 4: votes per direction 4/11/1/6/6.
func TestFig4VotesByDirection(t *testing.T) {
	c := Default()
	votes := map[Direction]int{}
	for _, a := range c.Applications {
		for _, name := range a.SelectedTools {
			tool, err := c.Tool(name)
			if err != nil {
				t.Fatal(err)
			}
			votes[tool.Direction]++
		}
	}
	want := map[Direction]int{
		InteractiveComputing:   4,
		Orchestration:          11,
		EnergyEfficiency:       1,
		PerformancePortability: 6,
		BigDataManagement:      6,
	}
	for d, n := range want {
		if votes[d] != n {
			t.Errorf("%s votes = %d, want %d", d, votes[d], n)
		}
	}
}

// Figure 3: institutions per number of covered directions {1:5, 2:1, 3:2, 4:1}.
func TestFig3InstitutionCoverage(t *testing.T) {
	c := Default()
	hist := map[int]int{}
	for _, in := range c.Institutions {
		n := len(c.DirectionsCovered(in.ID))
		if n == 0 {
			t.Errorf("institution %s contributes no tools", in.ID)
		}
		hist[n]++
	}
	want := map[int]int{1: 5, 2: 1, 3: 2, 4: 1}
	for k, v := range want {
		if hist[k] != v {
			t.Errorf("institutions covering %d directions = %d, want %d", k, hist[k], v)
		}
	}
	if hist[5] != 0 {
		t.Errorf("no institution should cover all five directions, got %d", hist[5])
	}
	// Paper constraint: more than half of institutions cover a single topic.
	if hist[1]*2 <= len(c.Institutions) {
		t.Errorf("paper states >half of institutions cover one topic; got %d of %d", hist[1], len(c.Institutions))
	}
}

func TestLookups(t *testing.T) {
	c := Default()
	if _, err := c.Tool("StreamFlow"); err != nil {
		t.Error(err)
	}
	if _, err := c.Tool("nope"); err == nil {
		t.Error("unknown tool should error")
	}
	if i, err := c.ApplicationIndex("3.5"); err != nil || c.Applications[i].ID != "3.5" {
		t.Error(i, err)
	}
	if _, err := c.ApplicationIndex("9.9"); err == nil {
		t.Error("unknown application should error")
	}
}

// selectionsOf returns the application IDs that selected tool, sorted.
func selectionsOf(c *Catalog, tool string) []string {
	var out []string
	for _, a := range c.Applications {
		for _, t := range a.SelectedTools {
			if t == tool {
				out = append(out, a.ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// totalSelections counts the (application, tool) selection pairs: the
// checkmarks of Table 2.
func totalSelections(c *Catalog) int {
	n := 0
	for _, a := range c.Applications {
		n += len(a.SelectedTools)
	}
	return n
}

func TestSelectionsOf(t *testing.T) {
	c := Default()
	got := selectionsOf(c, "StreamFlow")
	want := []string{"3.10", "3.2", "3.3"} // sorted lexicographically
	if len(got) != len(want) {
		t.Fatalf("SelectionsOf(StreamFlow) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SelectionsOf[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if got := selectionsOf(c, "TORCH"); len(got) != 0 {
		t.Errorf("TORCH received no votes in the paper, got %v", got)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if len(Directions()) != 5 {
		t.Fatal("should be five directions")
	}
	if !Orchestration.Valid() || Direction("bogus").Valid() {
		t.Error("Valid misbehaves")
	}
	if InteractiveComputing.Index() != 0 || BigDataManagement.Index() != 4 {
		t.Error("Index misordered")
	}
	if Direction("x").Index() != -1 {
		t.Error("invalid direction should index -1")
	}
}

func TestValidationCatchesCorruption(t *testing.T) {
	fresh := func() *Catalog { return Default() }

	c := fresh()
	c.Tools[0].Direction = "Quantum vibes"
	if err := c.Validate(); err == nil {
		t.Error("invalid direction accepted")
	}

	c = fresh()
	c.Tools = append(c.Tools, c.Tools[0])
	if err := c.Validate(); err == nil {
		t.Error("duplicate tool accepted")
	}

	c = fresh()
	c.Applications[0].SelectedTools = append(c.Applications[0].SelectedTools, "GhostTool")
	if err := c.Validate(); err == nil {
		t.Error("selection of unknown tool accepted")
	}

	c = fresh()
	c.Applications[0].SelectedTools = append(c.Applications[0].SelectedTools, c.Applications[0].SelectedTools[0])
	if err := c.Validate(); err == nil {
		t.Error("duplicate selection accepted")
	}

	c = fresh()
	c.Tools[0].Institution = "HOGWARTS"
	if err := c.Validate(); err == nil {
		t.Error("unknown institution accepted")
	}

	c = fresh()
	c.Tools[2].Secondary = []Direction{c.Tools[2].Direction}
	if err := c.Validate(); err == nil {
		t.Error("secondary equal to primary accepted")
	}

	c = fresh()
	c.Tools = nil
	if err := c.Validate(); err != ErrNoTools {
		t.Errorf("empty tools err = %v", err)
	}

	c = fresh()
	c.Applications = nil
	if err := c.Validate(); err != ErrNoApplications {
		t.Errorf("empty applications err = %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Tools) != len(c.Tools) || len(c2.Applications) != len(c.Applications) {
		t.Error("round trip lost records")
	}
	if c2.Tools[3].Name != c.Tools[3].Name || c2.Tools[3].Direction != c.Tools[3].Direction {
		t.Error("round trip corrupted tool")
	}
	if n := totalSelections(c2); n != 28 {
		t.Errorf("round trip selections = %d", n)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("syntactically invalid JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"title":"x","unknown_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Valid JSON but semantically empty catalog must fail validation.
	if _, err := ReadJSON(strings.NewReader(`{"title":"x"}`)); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestStringSummary(t *testing.T) {
	s := Default().String()
	if !strings.Contains(s, "25 tools") || !strings.Contains(s, "10 applications") {
		t.Errorf("summary = %q", s)
	}
}

func TestDefaultIsFreshCopy(t *testing.T) {
	a := Default()
	a.Tools[0].Name = "mutated"
	b := Default()
	if b.Tools[0].Name == "mutated" {
		t.Error("Default() shares state between calls")
	}
}
