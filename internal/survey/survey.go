// Package survey implements the tool-selection survey of Section 3: each
// application provider is asked which of the collected tools they deem
// valuable to improve their workload's execution in a Computing Continuum
// environment. The package models questionnaires, respondents, and vote
// aggregation, and produces the integration matrix behind the paper's
// Table 2 and Figure 4.
//
// RecordedRespondent replays the recorded selections, reproducing the
// paper's data exactly; scenarios.PerturbSurvey runs a respondent that flips
// some of them and measures the drift with Agreement.
package survey

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// Question is the single survey question posed to application providers.
const Question = "Which of the collected tools do you deem valuable to improve " +
	"the execution of your workload in a Computing Continuum environment?"

// Response is one application provider's answer: the set of selected tools.
type Response struct {
	ApplicationID string
	Tools         []string
}

// Respondent produces a Response for an application given the tool catalog.
type Respondent interface {
	Respond(app *catalog.Application, tools []catalog.Tool) (Response, error)
}

// RecordedRespondent replays the selections recorded in the catalog —
// the paper's actual survey data.
type RecordedRespondent struct{}

// Respond returns the application's recorded selections.
func (RecordedRespondent) Respond(app *catalog.Application, tools []catalog.Tool) (Response, error) {
	if app == nil {
		return Response{}, errors.New("survey: nil application")
	}
	return Response{
		ApplicationID: app.ID,
		Tools:         append([]string(nil), app.SelectedTools...),
	}, nil
}

// Survey runs the Section 3 selection survey over a catalog.
type Survey struct {
	Catalog   *catalog.Catalog
	Responses []Response
	// picks lists every selection as catalog positions, in response order:
	// the aggregations count positions instead of looking names up.
	picks []pick
}

type pick struct{ app, tool int }

// Run collects one response per application using the given respondent.
func Run(c *catalog.Catalog, r Respondent) (*Survey, error) {
	if c == nil {
		return nil, errors.New("survey: nil catalog")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return run(c, r)
}

// recordedSurvey is the recorded survey over the embedded catalog, built
// and validated once per process.
var recordedSurvey = sync.OnceValues(func() (*Survey, error) {
	return Run(catalog.Default(), RecordedRespondent{})
})

// Recorded returns the recorded survey over the embedded catalog — the
// paper's Table 2. It is built once and shared, so callers must not modify
// it or its catalog.
func Recorded() (*Survey, error) { return recordedSurvey() }

// Rerun asks r over s's catalog, which Run already validated. Each
// response is validated as in Run.
func (s *Survey) Rerun(r Respondent) (*Survey, error) { return run(s.Catalog, r) }

func run(c *catalog.Catalog, r Respondent) (*Survey, error) {
	s := &Survey{Catalog: c, Responses: make([]Response, 0, len(c.Applications))}
	for i := range c.Applications {
		resp, err := r.Respond(&c.Applications[i], c.Tools)
		if err != nil {
			return nil, fmt.Errorf("survey: application %s: %w", c.Applications[i].ID, err)
		}
		if err := s.add(resp); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// add validates a response against the catalog and records it.
func (s *Survey) add(r Response) error {
	app, err := s.Catalog.ApplicationIndex(r.ApplicationID)
	if err != nil {
		return err
	}
	for k, t := range r.Tools {
		tool, err := s.Catalog.ToolIndex(t)
		if err != nil {
			return fmt.Errorf("survey: response %s: %w", r.ApplicationID, err)
		}
		if slices.Contains(r.Tools[:k], t) {
			return fmt.Errorf("survey: response %s selects %q twice", r.ApplicationID, t)
		}
		s.picks = append(s.picks, pick{app, tool})
	}
	s.Responses = append(s.Responses, r)
	return nil
}

// selected returns the application × tool selection grid, row-major by
// tool: grid[tool*len(Applications)+app].
func (s *Survey) selected() []bool {
	apps := len(s.Catalog.Applications)
	grid := make([]bool, len(s.Catalog.Tools)*apps)
	for _, p := range s.picks {
		grid[p.tool*apps+p.app] = true
	}
	return grid
}

// Matrix is the application × tool integration matrix (Table 2).
type Matrix struct {
	ToolNames []string // row order: catalog order (grouped by direction)
	AppIDs    []string // column order: catalog order
	cells     []bool   // row-major: cells[row*len(AppIDs)+col]
}

// Matrix builds the integration matrix from the survey responses.
func (s *Survey) Matrix() *Matrix {
	m := &Matrix{
		ToolNames: make([]string, len(s.Catalog.Tools)),
		AppIDs:    make([]string, len(s.Catalog.Applications)),
		cells:     s.selected(),
	}
	for i, t := range s.Catalog.Tools {
		m.ToolNames[i] = t.Name
	}
	for i, a := range s.Catalog.Applications {
		m.AppIDs[i] = a.ID
	}
	return m
}

// Row returns the named tool's selections, one per AppIDs column (nil for
// an unknown tool). The slice is the matrix's own.
func (m *Matrix) Row(tool string) []bool {
	i := slices.Index(m.ToolNames, tool)
	if i < 0 {
		return nil
	}
	n := len(m.AppIDs)
	return m.cells[i*n : (i+1)*n : (i+1)*n]
}

// Checkmarks returns the total number of selections in the matrix.
func (m *Matrix) Checkmarks() int { return count(m.cells) }

func count(cells []bool) int {
	n := 0
	for _, c := range cells {
		if c {
			n++
		}
	}
	return n
}

// VotesByTool returns the number of applications that selected each tool,
// indexed like Catalog.Tools.
func (s *Survey) VotesByTool() []int {
	out := make([]int, len(s.Catalog.Tools))
	for _, p := range s.picks {
		out[p.tool]++
	}
	return out
}

// VotesByDirection aggregates selections per research direction — the
// distribution of Figure 4.
func (s *Survey) VotesByDirection() (*stats.CategoricalDist, error) {
	d := newDirectionDist()
	for i, n := range s.VotesByTool() {
		if n > 0 {
			d.Add(string(s.Catalog.Tools[i].Direction), n)
		}
	}
	return d, nil
}

// UnselectedTools returns the tools that received no votes, sorted by name
// (the paper's Table 2 shows 9 such rows, e.g. TORCH, SPF, BookedSlurm).
func (s *Survey) UnselectedTools() []string {
	votes := s.VotesByTool()
	var out []string
	for i, t := range s.Catalog.Tools {
		if votes[i] == 0 {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Agreement compares two surveys over the same catalog and returns the
// Jaccard similarity of their selection sets (1 = identical votes).
// scenarios.PerturbSurvey uses it to measure how far a perturbed survey
// drifts from the recorded selections. Two catalogs count as the same when
// they list the same tools and applications in the same order.
func Agreement(a, b *Survey) (float64, error) {
	if !sameLayout(a.Catalog, b.Catalog) {
		return 0, errors.New("survey: surveys over different catalogs")
	}
	ga, gb := a.selected(), b.selected()
	inter := 0
	for i, sel := range gb {
		if sel && ga[i] {
			inter++
		}
	}
	union := count(ga) + count(gb) - inter
	if union == 0 {
		return 1, nil
	}
	return float64(inter) / float64(union), nil
}

func sameLayout(a, b *catalog.Catalog) bool {
	return a == b ||
		slices.EqualFunc(a.Tools, b.Tools, func(x, y catalog.Tool) bool { return x.Name == y.Name }) &&
			slices.EqualFunc(a.Applications, b.Applications, func(x, y catalog.Application) bool { return x.ID == y.ID })
}

func newDirectionDist() *stats.CategoricalDist {
	names := make([]string, 0, 5)
	for _, d := range catalog.Directions() {
		names = append(names, string(d))
	}
	return stats.NewCategoricalDist(names...)
}
