package cas

// The journal is the record of a memoized run: an append-only list of
// completed steps, one JSON line each, flushed to the underlying writer as
// soon as the step finishes. After a mid-run fault it names exactly the
// steps whose artifacts are safe in the store. Recovery reads the store,
// not the journal: a re-run's memo hits are those steps, and only the steps
// that had not completed, or whose inputs changed since, execute.
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
	"os"
	"strconv"
	"sync"
)

// Entry is one journal line: a step that completed (executed or hit) with
// the artifact key its result lives under.
type Entry struct {
	// Seq is the 1-based append order within Run, and Run numbers the
	// journals that appended to one file ("1", "2", …; see OpenJournal).
	Seq      int        `json:"seq"`
	Run      string     `json:"run"`
	Workflow string     `json:"workflow"`
	Step     string     `json:"step"`
	Key      Key        `json:"key"`
	Status   StepStatus `json:"status"`
	// AtS is the completion time in seconds since clock.Epoch.
	AtS float64 `json:"at_s"`
}

// Journal numbers checkpoint entries (run and sequence) and (when
// constructed with a writer) streams each one as a JSON line immediately
// on append — a crashed run leaves every completed step on record.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	run string
	seq int   // entries appended so far
	err error // first write error, surfaced by Err
}

// NewJournal returns a journal streaming entries to w (nil = entries are
// stamped and dropped) after the entries prior that w already holds. Its
// run is one past their highest numeric run (older journals wrote "run"),
// so no two entries of one stream share a run and a sequence number.
func NewJournal(w io.Writer, prior []Entry) *Journal {
	last := 0
	for _, e := range prior {
		if n, err := strconv.Atoi(e.Run); err == nil && n > last {
			last = n
		}
	}
	return &Journal{w: w, run: strconv.Itoa(last + 1)}
}

// OpenJournal opens the journal file at path for appending, creating it
// when missing, and returns NewJournal(file, prior) with prior, the entries
// the file holds. A torn last line is cut first, so the next entry cannot
// turn it into a malformed interior line. A file ReadJournal rejects is an
// error. The caller closes the file.
func OpenJournal(path string) (*Journal, *os.File, []Entry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	data, err := io.ReadAll(f)
	if cut := bytes.LastIndexByte(data, '\n') + 1; err == nil && cut < len(data) {
		data, err = data[:cut], f.Truncate(int64(cut))
	}
	var prior []Entry
	if err == nil {
		prior, err = ReadJournal(bytes.NewReader(data))
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return NewJournal(f, prior), f, prior, nil
}

// Append records an entry, stamping its run and sequence number. It is
// safe for concurrent use. Once a write has failed the underlying stream
// is suspect (a short write may have torn its last line), so no further
// bytes are sent to it and the first error stays pinned for Err.
func (j *Journal) Append(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Run, e.Seq = j.run, j.seq
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
