package report

// Content-addressed report caching: FullEnv stores each rendered section
// in env.Store under sectionKey, so a warm rebuild over an unchanged study
// renders nothing and reproduces the report byte for byte. Cache keys
// derive from the study's *content* (corpus + survey), not its identity:
// two studies with equal catalogs and equal vote matrices share cache
// entries, and any edit to either — a new tool, a flipped checkmark —
// re-keys every section.

import (
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/exp"
)

// reportCacheVersion is folded into every section fingerprint; bump it
// whenever a renderer changes so stale artifacts cannot be served.
// v2: cache keys derive from the report Spec fingerprint and carry section
// names instead of positional sec%02d IDs.
// v3: the corpus-scale classifier-validation section joins the report.
const reportCacheVersion = "report/v3"

// ExperimentName is the registry name of the full-report experiment.
const ExperimentName = "report.full"

// Spec returns the declarative identity of the full-report build: the
// renderer version plus the study content fingerprint. Every section key
// derives from this spec's fingerprint, so an edit to the corpus, the
// votes, or the renderer recipe re-keys exactly what it invalidates.
func Spec(s *core.Study) (exp.Spec, error) {
	fp, err := s.Fingerprint()
	if err != nil {
		return exp.Spec{}, err
	}
	return exp.Spec{
		Name:   ExperimentName,
		Params: map[string]any{"version": reportCacheVersion, "study": fp},
	}, nil
}

// sectionKey is the memo key of one rendered section: the cas step key of
// the section ID under the report experiment, fingerprinted by the report
// Spec fingerprint and the ID. A change to this recipe turns every existing
// -cache directory cold, so TestSectionKeysPinned pins two of its keys.
func sectionKey(specFP, id string) cas.Key {
	return cas.StepKey(ExperimentName, id, specFP+":"+id, nil)
}
