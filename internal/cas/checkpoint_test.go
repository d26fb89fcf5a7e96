package cas

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to ReadJournal, which must return
// entries or an error, never both and never a panic. It then builds one
// entry per input line, appends them through a Journal, cuts the written
// bytes at an offset the input picks, and checks that ReadJournal returns
// exactly the entries whose JSON object survived the cut whole, in order:
// a crash mid-append costs only the torn last line.
func FuzzReadJournal(f *testing.F) {
	statuses := []StepStatus{StatusExecuted, StatusHit, StatusFailed, StatusSkipped}
	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := ReadJournal(bytes.NewReader(data)); err != nil && entries != nil {
			t.Fatalf("ReadJournal returned %d entries and error %v", len(entries), err)
		}

		var buf bytes.Buffer
		j := NewJournal(&buf, nil)
		var want []Entry
		var ends []int // offset just past each entry's closing brace
		for i, field := range bytes.Split(data, []byte{'\n'}) {
			field = field[:min(len(field), 256)]
			at := 0.0
			if len(field) >= 8 {
				at = math.Float64frombits(binary.LittleEndian.Uint64(field))
			}
			if math.IsNaN(at) || math.IsInf(at, 0) {
				at = 0
			}
			e := Entry{
				Workflow: "fuzz",
				Step:     strings.ToValidUTF8(string(field), "\uFFFD"),
				Key:      KeyOf(field),
				Status:   statuses[len(field)%len(statuses)],
				AtS:      at,
			}
			j.Append(e)
			e.Run, e.Seq = "1", i+1
			want = append(want, e)
			ends = append(ends, buf.Len()-1)
		}
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}

		cut := 0
		for _, b := range data[:min(len(data), 4)] {
			cut = cut<<8 | int(b)
		}
		cut %= buf.Len() + 1
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		got, err := ReadJournal(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			t.Fatalf("journal cut at %d of %d bytes: %v", cut, buf.Len(), err)
		}
		if len(got) != whole || (whole > 0 && !reflect.DeepEqual(got, want[:whole])) {
			t.Fatalf("journal cut at %d of %d bytes: read %+v, want the %d whole entries %+v",
				cut, buf.Len(), got, whole, want[:whole])
		}
	})
}

// OpenJournal numbers each opening of one file as the next run, counting a
// legacy run name as none, and rejects a file ReadJournal rejects.
func TestOpenJournalNumbersRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	legacy := `{"seq":1,"run":"run","workflow":"w","step":"a","key":"` + string(KeyOf([]byte("a"))) + `","status":"exec","at_s":0}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1", "2", "3"} {
		j, f, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Append(Entry{Workflow: "w", Step: "a", Key: KeyOf([]byte("a")), Status: StatusExecuted})
		j.Append(Entry{Workflow: "w", Step: "b", Key: KeyOf([]byte("b")), Status: StatusExecuted})
		f.Close()
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := ReadJournal(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		last := entries[len(entries)-2:]
		if last[0].Run != want || last[1].Run != want || last[0].Seq != 1 || last[1].Seq != 2 {
			t.Fatalf("opening %s appended %+v", want, last)
		}
	}
	// A torn last line is cut, not glued to the next entry.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4", "5"} {
		j, f, _, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("opening %s after a torn tail: %v", want, err)
		}
		j.Append(Entry{Workflow: "w", Step: "c", Key: KeyOf([]byte("c")), Status: StatusExecuted})
		f.Close()
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(bytes.NewReader(raw))
	if err != nil || len(entries) != 1+3*2-1+2 || entries[len(entries)-1].Run != "5" {
		t.Fatalf("journal after a torn tail: %d entries, err %v:\n%s", len(entries), err, raw)
	}
	if err := os.WriteFile(path, []byte("{\"bad\n"+legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); err == nil {
		t.Fatal("a journal with a malformed interior line was opened")
	}
}
