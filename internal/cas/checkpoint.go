package cas

// The checkpoint journal is the crash-recovery half of the subsystem: an
// append-only record of completed steps, one JSON line each, flushed to
// the underlying writer as soon as the step finishes. After a mid-run
// fault the journal names exactly the steps whose artifacts are safe in
// the store; feeding it back through Completed → Memo.Resume makes the
// second run replay only the steps that had not completed.
//
// Timestamps are read from the Memo's injected clock (clock.Seconds), and
// workflow.Run calls the steps one at a time in topological order, so a run
// on clock.Sim writes a byte-identical journal on every execution: the same
// lines, in the same order, with the same Seq.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Entry is one journal line: a step that completed (executed, hit, or
// restored) with the artifact key its result lives under.
type Entry struct {
	// Seq is the 1-based append order within this journal instance.
	Seq      int        `json:"seq"`
	Run      string     `json:"run"`
	Workflow string     `json:"workflow"`
	Step     string     `json:"step"`
	Key      Key        `json:"key"`
	Status   StepStatus `json:"status"`
	// AtS is the completion time in seconds since clock.Epoch.
	AtS float64 `json:"at_s"`
}

// Journal numbers checkpoint entries and (when constructed with a writer)
// streams each one as a JSON line immediately on append — a crashed run
// leaves every completed step on record.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	seq int   // entries appended so far
	err error // first write error, surfaced by Err
}

// NewJournal returns a journal streaming entries to w (nil = entries are
// numbered and dropped).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// Append records an entry, assigning its sequence number. It is safe for
// concurrent use. Once a write has failed the underlying stream is suspect
// (a short write may have torn its last line), so no further bytes are sent
// to it and the first error stays pinned for Err.
func (j *Journal) Append(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if j.w == nil || j.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err == nil {
		data = append(data, '\n')
		_, err = j.w.Write(data)
	}
	if err != nil {
		j.err = err
	}
}

// Err returns the first write error encountered by Append (nil if none).
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJournal parses a JSON-lines journal. A malformed *final* line (a
// crash mid-write tore it) is ignored; a malformed interior line is an
// error.
func ReadJournal(r io.Reader) ([]Entry, error) {
	var lines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) > 0 {
			lines = append(lines, append([]byte(nil), raw...))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cas: reading journal: %w", err)
	}
	var out []Entry
	for i, raw := range lines {
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			if i == len(lines)-1 {
				return out, nil // torn tail from a crash: drop it
			}
			return nil, fmt.Errorf("cas: journal line %d: %w", i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// Completed extracts the resume map for a workflow from journal entries:
// step ID → artifact key of its completed result (last entry wins). Feed
// the result to Memo.Resume to replay only incomplete steps.
func Completed(entries []Entry, workflowName string) map[string]Key {
	out := map[string]Key{}
	for _, e := range entries {
		if e.Workflow == workflowName && e.Key.Valid() {
			out[e.Step] = e.Key
		}
	}
	return out
}
