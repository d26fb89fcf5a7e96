// Package core implements the systematic mapping study (SMS) engine — the
// paper's primary contribution. It models the study protocol (research
// questions, inclusion criteria, classification scheme), classifies tools
// into the five research directions, aggregates the survey selections, and
// synthesizes the answers to the paper's three research questions.
//
// The SMS methodology follows Petersen et al. (EASE 2008), which the paper
// adopts: general questions to discover research trends, classification of
// primary studies into a scheme, and frequency analysis of the resulting
// map. Unlike a systematic literature review, no quality assessment of
// primary studies is performed.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/survey"
)

// ResearchQuestion is one of the study's guiding questions.
type ResearchQuestion struct {
	ID   string // "Q1", "Q2", "Q3"
	Text string
}

// Questions returns the paper's three research questions.
func Questions() []ResearchQuestion {
	return []ResearchQuestion{
		{"Q1", "Which are the main research directions for WMSs in the Computing Continuum?"},
		{"Q2", "Which research directions are widespread in the scientific community?"},
		{"Q3", "Which research directions address a critical need for modern scientific applications?"},
	}
}

// Protocol describes the mapping study protocol.
type Protocol struct {
	Scope     string             // population under study
	Questions []ResearchQuestion // the guiding questions
	// InclusionCriteria govern which tools enter the study.
	InclusionCriteria []string
}

// DefaultProtocol returns the protocol the paper describes in Section 1.
func DefaultProtocol() Protocol {
	return Protocol{
		Scope:     "Italian ICSC ecosystem (Spoke 1, FL3) as a statistical sample of international workflow research",
		Questions: Questions(),
		InclusionCriteria: []string{
			"tool is developed or maintained by an ICSC Spoke 1 partner",
			"tool targets large-scale scientific workflows or their execution in the Computing Continuum",
			"primary studies without empirical evidence may be included (SMS, not SLR)",
		},
	}
}

// Study binds a catalog, a protocol and a survey into one analyzable unit.
type Study struct {
	Protocol Protocol
	Catalog  *catalog.Catalog
	Survey   *survey.Survey

	fpOnce sync.Once
	fp     string
	fpErr  error
}

// Fingerprint returns the SHA-256 hex digest of the study's content: the
// catalog JSON (the corpus) concatenated with a canonical rendering of the
// survey's integration matrix. It is the cache-invalidation root for every
// rendered report artifact. It is computed on first use and kept, so the
// study's catalog and survey must not change after NewStudy.
func (s *Study) Fingerprint() (string, error) {
	s.fpOnce.Do(func() { s.fp, s.fpErr = s.fingerprint() })
	return s.fp, s.fpErr
}

func (s *Study) fingerprint() (string, error) {
	h := sha256.New()
	if err := s.Catalog.WriteJSON(h); err != nil {
		return "", fmt.Errorf("core: fingerprinting catalog: %w", err)
	}
	m := s.Survey.Matrix()
	// Canonical matrix rendering: app columns in order, then every
	// (tool, app) selection pair sorted.
	fmt.Fprintf(h, "\x00apps:%s", strings.Join(m.AppIDs, ","))
	var pairs []string
	for _, tool := range m.ToolNames {
		for c, sel := range m.Row(tool) {
			if sel {
				pairs = append(pairs, tool+"\x01"+m.AppIDs[c])
			}
		}
	}
	sort.Strings(pairs)
	fmt.Fprintf(h, "\x00votes:%s", strings.Join(pairs, ","))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// NewStudy assembles a study over c using the recorded survey responses.
// It validates the catalog first.
func NewStudy(c *catalog.Catalog) (*Study, error) {
	if c == nil {
		return nil, errors.New("core: nil catalog")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sv, err := survey.Run(c, survey.RecordedRespondent{})
	if err != nil {
		return nil, err
	}
	return &Study{Protocol: DefaultProtocol(), Catalog: c, Survey: sv}, nil
}

// Default returns the study over the embedded ICSC catalog.
func Default() (*Study, error) { return NewStudy(catalog.Default()) }

// ToolDistribution returns the Figure 2 distribution: number of tools per
// research direction, in canonical direction order.
func (s *Study) ToolDistribution() *stats.CategoricalDist {
	d := directionDist()
	for _, t := range s.Catalog.Tools {
		d.Observe(string(t.Direction))
	}
	return d
}

// VoteDistribution returns the Figure 4 distribution: number of integration
// selections per research direction.
func (s *Study) VoteDistribution() (*stats.CategoricalDist, error) {
	return s.Survey.VotesByDirection()
}

// InstitutionCoverage returns the Figure 3 histogram: for each institution,
// how many research directions its tools cover.
func (s *Study) InstitutionCoverage() *stats.IntHistogram {
	var h stats.IntHistogram
	for _, in := range s.Catalog.Institutions {
		h.Observe(len(s.Catalog.DirectionsCovered(in.ID)))
	}
	return &h
}

// Answer is the synthesized answer to one research question: a short
// narrative plus the quantitative findings backing it.
type Answer struct {
	Question ResearchQuestion
	Summary  string
	Findings []string
}

// AnswerQ1 identifies the main research directions (Q1).
func (s *Study) AnswerQ1() Answer {
	d := s.ToolDistribution()
	findings := make([]string, 0, 6)
	for _, dir := range catalog.Directions() {
		findings = append(findings, fmt.Sprintf("%s: %d tool(s)", dir, d.Count(string(dir))))
	}
	return Answer{
		Question: Questions()[0],
		Summary: fmt.Sprintf("The study identifies %d main research directions for WMSs in the Computing Continuum: %s.",
			len(catalog.Directions()), joinDirections()),
		Findings: findings,
	}
}

// AnswerQ2 analyzes how widespread each direction is (Q2): balance of the
// tool distribution and the institution-coverage histogram.
func (s *Study) AnswerQ2() Answer {
	d := s.ToolDistribution()
	h := s.InstitutionCoverage()
	nInst := len(s.Catalog.Institutions)
	single := h.Count(1)
	all := h.Count(len(catalog.Directions()))
	chi2, dof := d.ChiSquareUniform()
	findings := []string{
		fmt.Sprintf("tool spread balance (normalized entropy) = %.3f (1.0 = perfectly even)", d.Balance()),
		fmt.Sprintf("chi-square vs uniform = %.2f (dof=%d)", chi2, dof),
		fmt.Sprintf("%d of %d institutions cover a single research direction", single, nInst),
		fmt.Sprintf("%d institutions span all %d directions", all, len(catalog.Directions())),
	}
	return Answer{
		Question: Questions()[1],
		Summary: fmt.Sprintf("Effort is quite balanced across directions (balance %.2f); no single predominant "+
			"research line exists, but %d of %d institutions cover only one topic and none span all five, "+
			"so collaborative initiatives are crucial.", d.Balance(), single, nInst),
		Findings: findings,
	}
}

// AnswerQ3 analyzes which directions address critical application needs
// (Q3): the skew of the vote distribution.
func (s *Study) AnswerQ3() (Answer, error) {
	v, err := s.VoteDistribution()
	if err != nil {
		return Answer{}, err
	}
	top, err := v.ArgMax()
	if err != nil {
		return Answer{}, err
	}
	bottom, err := v.ArgMin()
	if err != nil {
		return Answer{}, err
	}
	findings := make([]string, 0, 7)
	for _, dir := range catalog.Directions() {
		findings = append(findings, fmt.Sprintf("%s: %d vote(s), %.1f%%",
			dir, v.Count(string(dir)), v.Share(string(dir))*100))
	}
	findings = append(findings,
		fmt.Sprintf("vote imbalance (max/min) = %.1f", v.Imbalance()),
		fmt.Sprintf("unselected tools: %d of %d", len(s.Survey.UnselectedTools()), len(s.Catalog.Tools)))
	return Answer{
		Question: Questions()[2],
		Summary: fmt.Sprintf("The vote distribution is much more unbalanced than the tool distribution: "+
			"%s dominates with %.1f%% of selections while %s receives only %.1f%%, so advanced workflow "+
			"orchestration is the most critical need and energy efficiency, despite its importance, is "+
			"perceived as domain-specific.", top, v.Share(top)*100, bottom, v.Share(bottom)*100),
		Findings: findings,
	}, nil
}

// Answers returns all three answers in order.
func (s *Study) Answers() ([]Answer, error) {
	q3, err := s.AnswerQ3()
	if err != nil {
		return nil, err
	}
	return []Answer{s.AnswerQ1(), s.AnswerQ2(), q3}, nil
}

// CrossDirectionGap compares the tool distribution (supply, Fig 2) against
// the vote distribution (demand, Fig 4) and returns, per direction, the
// demand share minus supply share. Positive values mark under-supplied
// directions (orchestration, in the paper); negative values mark directions
// whose tools attract fewer votes than their prevalence (energy efficiency).
func (s *Study) CrossDirectionGap() (map[catalog.Direction]float64, error) {
	tools := s.ToolDistribution()
	votes, err := s.VoteDistribution()
	if err != nil {
		return nil, err
	}
	out := make(map[catalog.Direction]float64, 5)
	for _, d := range catalog.Directions() {
		out[d] = votes.Share(string(d)) - tools.Share(string(d))
	}
	return out, nil
}

func directionDist() *stats.CategoricalDist {
	names := make([]string, 0, 5)
	for _, d := range catalog.Directions() {
		names = append(names, string(d))
	}
	return stats.NewCategoricalDist(names...)
}

func joinDirections() string {
	out := ""
	dirs := catalog.Directions()
	for i, d := range dirs {
		switch {
		case i == 0:
		case i == len(dirs)-1:
			out += ", and "
		default:
			out += ", "
		}
		out += string(d)
	}
	return out
}
