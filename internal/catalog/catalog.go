// Package catalog holds the mapping study's dataset: the five research
// directions, the 25 collected tools, the 10 scientific applications, the
// contributing institutions, and the tool-integration selections that the
// application providers made (the paper's Table 2).
//
// The data is embedded as Go literals in data.go so the study is
// self-contained and reproducible offline; JSON import/export is provided so
// the same engine can run over other ecosystems' catalogs.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Direction is one of the five research directions identified by the study
// (Section 2 of the paper).
type Direction string

// The five research directions, in the order the paper lists them.
const (
	InteractiveComputing   Direction = "Interactive computing"
	Orchestration          Direction = "Orchestration"
	EnergyEfficiency       Direction = "Energy efficiency"
	PerformancePortability Direction = "Performance portability"
	BigDataManagement      Direction = "Big Data management"
)

// Directions returns the five research directions in canonical (paper) order.
func Directions() []Direction {
	return []Direction{
		InteractiveComputing,
		Orchestration,
		EnergyEfficiency,
		PerformancePortability,
		BigDataManagement,
	}
}

// Valid reports whether d is one of the five study directions.
func (d Direction) Valid() bool {
	switch d {
	case InteractiveComputing, Orchestration, EnergyEfficiency,
		PerformancePortability, BigDataManagement:
		return true
	}
	return false
}

// Index returns the canonical position of d (0..4), or -1 if invalid.
func (d Direction) Index() int {
	for i, dd := range Directions() {
		if d == dd {
			return i
		}
	}
	return -1
}

// Initials abbreviates d to the upper-cased first letters of its words
// ("Big Data management" → "BDM"): the row and column labels of every
// confusion-matrix rendering.
func (d Direction) Initials() string {
	out := ""
	for _, w := range strings.Fields(string(d)) {
		out += strings.ToUpper(w[:1])
	}
	return out
}

// Institution is a research institution contributing tools to the study.
type Institution struct {
	ID   string `json:"id"`   // short code, e.g. "UNITO"
	Name string `json:"name"` // full name
}

// Tool is one collected tool (a row of the paper's Table 1).
type Tool struct {
	Name        string    `json:"name"`
	Direction   Direction `json:"direction"`   // primary research direction (manual label)
	Institution string    `json:"institution"` // contributing institution ID
	Description string    `json:"description"` // one-paragraph summary used by the keyword classifier
	Reference   string    `json:"reference,omitempty"`
	// Year is the tool's reference publication year (0 if unpublished or
	// only available as a repository/service).
	Year int `json:"year,omitempty"`
	// Secondary lists additional directions the tool touches; the paper notes
	// "all tools exhibit a primary direction, even if some cover multiple
	// research topics".
	Secondary []Direction `json:"secondary,omitempty"`
}

// Application is one collected scientific application (Section 3).
type Application struct {
	ID          string `json:"id"`    // paper section number, e.g. "3.1"
	Title       string `json:"title"` // short title
	Domain      string `json:"domain"`
	Description string `json:"description"`
	// SelectedTools are the tools the application provider identified for
	// integration — the checkmarks of the paper's Table 2.
	SelectedTools []string `json:"selected_tools"`
	// Needs are coarse requirement tags used by the survey recommender.
	Needs []string `json:"needs,omitempty"`
}

// Spoke is one ICSC spoke (Fig. 1 context).
type Spoke struct {
	Number int    `json:"number"`
	Name   string `json:"name"`
}

// Flagship is one Spoke 1 scientific flagship (Fig. 1).
type Flagship struct {
	ID          string `json:"id"` // e.g. "FL3"
	Name        string `json:"name"`
	Coordinator string `json:"coordinator"`
}

// Catalog is the complete study dataset.
type Catalog struct {
	Title        string        `json:"title"`
	Institutions []Institution `json:"institutions"`
	Tools        []Tool        `json:"tools"`
	Applications []Application `json:"applications"`
	Spokes       []Spoke       `json:"spokes"`
	Flagships    []Flagship    `json:"flagships"`
}

// Tool returns the tool with the given name (case-sensitive), or an error.
func (c *Catalog) Tool(name string) (*Tool, error) {
	for i := range c.Tools {
		if c.Tools[i].Name == name {
			return &c.Tools[i], nil
		}
	}
	return nil, fmt.Errorf("catalog: unknown tool %q", name)
}

// Application returns the application with the given ID, or an error.
func (c *Catalog) Application(id string) (*Application, error) {
	for i := range c.Applications {
		if c.Applications[i].ID == id {
			return &c.Applications[i], nil
		}
	}
	return nil, fmt.Errorf("catalog: unknown application %q", id)
}

// ToolsByDirection returns the tools whose primary direction is d, in catalog
// order (which matches the paper's Table 1 column order).
func (c *Catalog) ToolsByDirection(d Direction) []Tool {
	var out []Tool
	for _, t := range c.Tools {
		if t.Direction == d {
			out = append(out, t)
		}
	}
	return out
}

// ToolsByInstitution returns the tools contributed by institution id.
func (c *Catalog) ToolsByInstitution(id string) []Tool {
	var out []Tool
	for _, t := range c.Tools {
		if t.Institution == id {
			out = append(out, t)
		}
	}
	return out
}

// DirectionsCovered returns the set of primary directions covered by the
// tools of institution id, in canonical order.
func (c *Catalog) DirectionsCovered(id string) []Direction {
	seen := map[Direction]bool{}
	for _, t := range c.ToolsByInstitution(id) {
		seen[t.Direction] = true
	}
	var out []Direction
	for _, d := range Directions() {
		if seen[d] {
			out = append(out, d)
		}
	}
	return out
}

// Validation errors.
var (
	ErrNoTools        = errors.New("catalog: no tools")
	ErrNoApplications = errors.New("catalog: no applications")
)

// Validate checks referential integrity of the catalog: every tool points to
// a known institution and a valid direction, every application selection
// points to a known tool, no duplicate names/IDs.
func (c *Catalog) Validate() error {
	if len(c.Tools) == 0 {
		return ErrNoTools
	}
	if len(c.Applications) == 0 {
		return ErrNoApplications
	}
	instIDs := map[string]bool{}
	for _, in := range c.Institutions {
		if in.ID == "" {
			return errors.New("catalog: institution with empty ID")
		}
		if instIDs[in.ID] {
			return fmt.Errorf("catalog: duplicate institution %q", in.ID)
		}
		instIDs[in.ID] = true
	}
	toolNames := map[string]bool{}
	for _, t := range c.Tools {
		if t.Name == "" {
			return errors.New("catalog: tool with empty name")
		}
		if toolNames[t.Name] {
			return fmt.Errorf("catalog: duplicate tool %q", t.Name)
		}
		toolNames[t.Name] = true
		if !t.Direction.Valid() {
			return fmt.Errorf("catalog: tool %q has invalid direction %q", t.Name, t.Direction)
		}
		if t.Institution != "" && !instIDs[t.Institution] {
			return fmt.Errorf("catalog: tool %q references unknown institution %q", t.Name, t.Institution)
		}
		for _, s := range t.Secondary {
			if !s.Valid() {
				return fmt.Errorf("catalog: tool %q has invalid secondary direction %q", t.Name, s)
			}
			if s == t.Direction {
				return fmt.Errorf("catalog: tool %q lists primary direction %q as secondary", t.Name, s)
			}
		}
	}
	appIDs := map[string]bool{}
	for _, a := range c.Applications {
		if a.ID == "" {
			return errors.New("catalog: application with empty ID")
		}
		if appIDs[a.ID] {
			return fmt.Errorf("catalog: duplicate application %q", a.ID)
		}
		appIDs[a.ID] = true
		sel := map[string]bool{}
		for _, t := range a.SelectedTools {
			if !toolNames[t] {
				return fmt.Errorf("catalog: application %q selects unknown tool %q", a.ID, t)
			}
			if sel[t] {
				return fmt.Errorf("catalog: application %q selects tool %q twice", a.ID, t)
			}
			sel[t] = true
		}
	}
	return nil
}

// WriteJSON serializes the catalog as indented JSON.
func (c *Catalog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadJSON parses a catalog from JSON and validates it.
func ReadJSON(r io.Reader) (*Catalog, error) {
	var c Catalog
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("catalog: decoding JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// String summarizes the catalog on one line.
func (c *Catalog) String() string {
	return fmt.Sprintf("%s: %d tools, %d applications, %d institutions",
		strings.TrimSpace(c.Title), len(c.Tools), len(c.Applications), len(c.Institutions))
}
