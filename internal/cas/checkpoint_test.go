package cas

import (
	"bytes"
	"encoding/binary"
	"math"
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
	statuses := []StepStatus{StatusExecuted, StatusHit, StatusRestored, StatusFailed, StatusSkipped}
	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := ReadJournal(bytes.NewReader(data)); err != nil && entries != nil {
			t.Fatalf("ReadJournal returned %d entries and error %v", len(entries), err)
		}

		var buf bytes.Buffer
		j := NewJournal(&buf)
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
				Run:      "run",
				Workflow: "fuzz",
				Step:     strings.ToValidUTF8(string(field), "\uFFFD"),
				Key:      KeyOf(field),
				Status:   statuses[len(field)%len(statuses)],
				AtS:      at,
			}
			j.Append(e)
			e.Seq = i + 1
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
