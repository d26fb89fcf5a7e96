package cas

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/workflow"
)

// stepKeyVersion is folded into every memo key; bump it to invalidate all
// cached step results when the key recipe itself changes.
const stepKeyVersion = "cas/step/v1"

// StepKey derives the memo key of one step execution from everything that
// determines its result:
//
//	key = SHA-256( version ‖ workflow ‖ stepID ‖ fingerprint ‖
//	               dep₁ ‖ artifactKey(dep₁) ‖ dep₂ ‖ artifactKey(dep₂) … )
//
// with dependency IDs sorted and every field length-prefixed, so no
// concatenation of distinct inputs can collide. The fingerprint is the
// caller's statement of the step body's identity (e.g. a hash of its
// configuration); dep keys are the *artifact* keys of the dependency
// results, so any change in an upstream result — even one that leaves the
// upstream inputs alone — flips every downstream key (no false hits).
func StepKey(workflowName, stepID, fingerprint string, deps map[string]Key) Key {
	h := sha256.New()
	field := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	field(stepKeyVersion)
	field(workflowName)
	field(stepID)
	field(fingerprint)
	ids := make([]string, 0, len(deps))
	for id := range deps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		field(id)
		field(string(deps[id]))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// StepStatus describes how the memo layer satisfied one step.
type StepStatus string

const (
	// StatusExecuted: cache miss, the body ran.
	StatusExecuted StepStatus = "exec"
	// StatusHit: the memo key resolved to a stored artifact; body skipped.
	StatusHit StepStatus = "hit"
	// StatusRestored: a checkpoint journal entry supplied the artifact;
	// body skipped.
	StatusRestored StepStatus = "restore"
	// StatusFailed: the body ran and returned an error.
	StatusFailed StepStatus = "fail"
	// StatusSkipped: never ran because an earlier step failed or the run
	// was cancelled.
	StatusSkipped StepStatus = "skip"
)

// RunStats counts what a memoized run did.
type RunStats struct {
	Hits         int   // steps satisfied from the memo table
	Misses       int   // steps whose key was absent (body executed or failed)
	Executed     int   // bodies that ran to completion
	Restored     int   // steps satisfied from the checkpoint journal
	Failed       int   // bodies that ran and errored
	Skipped      int   // steps skipped after an earlier failure
	BytesWritten int64 // artifact bytes newly stored
	BytesReused  int64 // artifact bytes served from the store
}

// RunResult is the outcome of Memo.Run.
type RunResult struct {
	// Results mirrors workflow.Run: per-step results keyed by ID.
	// Values of hit/restored steps are the Decode'd canonical form.
	Results map[string]workflow.Result
	// Keys maps every completed step to its artifact key.
	Keys map[string]Key
	// Status records how each step was satisfied.
	Status map[string]StepStatus
	// Stats aggregates the counts above.
	Stats RunStats
}

// Memo is the memoization layer over the workflow runner: it wraps step
// bodies so that a step whose inputs were seen before is satisfied from
// the Store without executing.
type Memo struct {
	// Store holds artifacts and the memo table. Required.
	Store Store
	// Clock stamps journal entries (nil = clock.System). Inject a
	// clock.Sim for byte-identical journals.
	Clock clock.Clock
	// Journal, when non-nil, receives one checkpoint entry per completed
	// step (hit, restored, or executed).
	Journal *Journal
	// RunID labels journal entries (defaults to "run").
	RunID string
	// Resume maps step IDs to artifact keys recovered from a previous
	// run's journal (see Completed); listed steps are satisfied directly
	// from the store without recomputing their memo key.
	Resume map[string]Key
}

// ErrNoStore is returned by Run when the Memo has no Store.
var ErrNoStore = errors.New("cas: memo has no store")

func (m *Memo) runID() string {
	if m.RunID == "" {
		return "run"
	}
	return m.RunID
}

// Run executes wf through workflow.Run with memoization: each step's memo
// key is derived from (workflow name, step ID, fingerprints[step], dep
// artifact keys); a key already linked in the store satisfies the step
// without executing its body. fingerprints may be nil (all bodies
// fingerprint "").
//
// Step values must round-trip through Encode/Decode (JSON): on a hit the
// dependents observe the decoded canonical form, so bodies should treat
// dep values as JSON-shaped data (strings stay strings either way).
//
// The returned error mirrors workflow.Run; on a mid-run failure the
// store and journal retain every step that completed, so a subsequent Run
// (optionally with Resume set from the journal) re-executes only the steps
// that had not completed.
func (m *Memo) Run(ctx context.Context, wf *workflow.Workflow, bodies map[string]workflow.StepFunc, fingerprints map[string]string) (*RunResult, error) {
	if m.Store == nil {
		return nil, ErrNoStore
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	c := clock.Or(m.Clock)

	out := &RunResult{
		Keys:   map[string]Key{},
		Status: map[string]StepStatus{},
	}
	wrapped := map[string]workflow.StepFunc{}
	for _, s := range wf.Steps() {
		body := bodies[s.ID]
		if body == nil {
			return nil, fmt.Errorf("cas: no body for step %q", s.ID)
		}
		stepID := s.ID
		fp := fingerprints[stepID]
		depIDs := append([]string(nil), s.After...)
		wrapped[stepID] = func(ctx context.Context, deps map[string]any) (any, error) {
			// Dependency artifact keys are available because workflow.Run
			// calls a step only after all its dependencies completed.
			depKeys := make(map[string]Key, len(depIDs))
			for _, dep := range depIDs {
				depKeys[dep] = out.Keys[dep]
			}
			resumeKey, resuming := m.Resume[stepID]

			// Checkpoint resume: the journal of the faulted run already
			// names this step's artifact.
			if resuming {
				data, ok, err := m.Store.Get(resumeKey)
				if err != nil {
					return nil, err
				}
				if ok {
					v, err := Decode(data)
					if err != nil {
						return nil, err
					}
					out.Stats.Restored++
					out.Stats.BytesReused += int64(len(data))
					out.Status[stepID] = StatusRestored
					out.Keys[stepID] = resumeKey
					m.journalAppend(c, wf.Name, stepID, resumeKey, StatusRestored)
					return v, nil
				}
				// Artifact evicted since the journal was written: fall
				// through to the memo path.
			}

			stepKey := StepKey(wf.Name, stepID, fp, depKeys)

			// Memo hit: key already links to an artifact.
			if target, ok, err := m.Store.Resolve(stepKey); err != nil {
				return nil, err
			} else if ok {
				data, found, err := m.Store.Get(target)
				if err != nil {
					return nil, err
				}
				if found {
					v, err := Decode(data)
					if err != nil {
						return nil, err
					}
					out.Stats.Hits++
					out.Stats.BytesReused += int64(len(data))
					out.Status[stepID] = StatusHit
					out.Keys[stepID] = target
					m.journalAppend(c, wf.Name, stepID, target, StatusHit)
					return v, nil
				}
			}

			// Miss: execute the body, store the artifact, link the key.
			v, err := body(ctx, deps)
			if err != nil {
				out.Stats.Misses++
				out.Stats.Failed++
				out.Status[stepID] = StatusFailed
				return nil, err
			}
			data, err := Encode(v)
			if err != nil {
				return nil, fmt.Errorf("cas: step %q: %w", stepID, err)
			}
			artifact, err := m.Store.Put(data)
			if err == nil {
				err = m.Store.Link(stepKey, artifact)
			}
			if err != nil {
				return nil, err
			}
			out.Stats.Misses++
			out.Stats.Executed++
			out.Stats.BytesWritten += int64(len(data))
			out.Status[stepID] = StatusExecuted
			out.Keys[stepID] = artifact
			m.journalAppend(c, wf.Name, stepID, artifact, StatusExecuted)
			return v, nil
		}
	}

	results, runErr := workflow.Run(ctx, wf, wrapped)
	out.Results = results
	for _, s := range wf.Steps() {
		if _, ok := out.Status[s.ID]; !ok {
			out.Status[s.ID] = StatusSkipped
			out.Stats.Skipped++
		}
	}
	return out, runErr
}

// journalAppend writes one checkpoint entry when a journal is wired.
func (m *Memo) journalAppend(c clock.Clock, wfName, stepID string, artifact Key, st StepStatus) {
	if m.Journal == nil {
		return
	}
	m.Journal.Append(Entry{
		Run:      m.runID(),
		Workflow: wfName,
		Step:     stepID,
		Key:      artifact,
		Status:   st,
		AtS:      clock.Seconds(c.Now()),
	})
}
