package capio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCreateOpenSemantics(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(""); err == nil {
		t.Error("empty path accepted")
	}
	w, err := s.Create("out/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("out/data.bin"); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := s.Open("missing"); err == nil {
		t.Error("open of missing file accepted")
	}
	if _, err := s.Open("out/data.bin"); err != nil {
		t.Error(err)
	}
	_ = w.Close()
}

func TestWriteAfterClose(t *testing.T) {
	s := NewStore()
	w, _ := s.Create("f")
	_ = w.Close()
	_ = w.Close() // idempotent
	if _, err := w.Write([]byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestStreamingReadOverlapsWriting(t *testing.T) {
	s := NewStore()
	w, _ := s.Create("stream")
	r, _ := s.Open("stream")

	const chunks = 50
	var consumed [][]byte
	done := make(chan error, 1)
	go func() {
		for {
			c, err := r.NextChunk()
			if err == io.EOF {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			consumed = append(consumed, c)
		}
	}()

	for i := 0; i < chunks; i++ {
		if _, err := w.Write([]byte(fmt.Sprintf("chunk-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(consumed) != chunks {
		t.Fatalf("consumed %d chunks", len(consumed))
	}
	for i, c := range consumed {
		if string(c) != fmt.Sprintf("chunk-%02d", i) {
			t.Errorf("chunk %d = %q", i, c)
		}
	}
}

func TestReadAll(t *testing.T) {
	s := NewStore()
	w, _ := s.Create("f")
	r, _ := s.Open("f")
	go func() {
		_, _ = w.Write([]byte("hello "))
		_, _ = w.Write([]byte("world"))
		_ = w.Close()
	}()
	data, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello world")) {
		t.Errorf("data = %q", data)
	}
}

func TestMultipleReadersIndependent(t *testing.T) {
	s := NewStore()
	w, _ := s.Create("f")
	r1, _ := s.Open("f")
	r2, _ := s.Open("f")
	_, _ = w.Write([]byte("a"))
	_, _ = w.Write([]byte("b"))
	_ = w.Close()
	a1, _ := r1.ReadAll()
	a2, _ := r2.ReadAll()
	if string(a1) != "ab" || string(a2) != "ab" {
		t.Errorf("readers saw %q, %q", a1, a2)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s := NewStore()
	const files = 8
	var wg sync.WaitGroup
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("f%d", i)
		w, err := s.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(w *Writer, i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, _ = w.Write([]byte{byte(i), byte(j)})
			}
			_ = w.Close()
		}(w, i)
		go func(path string) {
			defer wg.Done()
			r, err := s.Open(path)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := r.ReadAll()
			if err != nil || len(data) != 200 {
				t.Errorf("%s: %d bytes, %v", path, len(data), err)
			}
		}(path)
	}
	wg.Wait()
}

func TestCouplingModelValidate(t *testing.T) {
	bad := []CouplingModel{
		{Chunks: 0},
		{Chunks: 1, ProduceS: -1},
		{Chunks: 1, ConsumeS: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestStagedVsStreamedMakespan(t *testing.T) {
	m := CouplingModel{Chunks: 100, ProduceS: 1, TransferS: 0.1, ConsumeS: 1}
	staged, err := m.StagedMakespan()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := m.StreamedMakespan()
	if err != nil {
		t.Fatal(err)
	}
	// Staged: 100*(1+0.1) + 100*1 = 210. Streamed pipeline: first chunk
	// arrives at 1.1, then consumer is the bottleneck at rate 1/s but
	// producer feeds at 1/s too → finish ≈ 1.1 + 100 ≈ 101.1.
	if staged != 210 {
		t.Errorf("staged = %v, want 210", staged)
	}
	if math.Abs(streamed-101.1) > 1e-9 {
		t.Errorf("streamed = %v, want 101.1", streamed)
	}
	ov, err := m.Overlap()
	if err != nil {
		t.Fatal(err)
	}
	if ov < 1.5 {
		t.Errorf("overlap speedup = %v, want ≈ 2x for balanced stages", ov)
	}
}

func TestStreamedNeverWorseThanStaged(t *testing.T) {
	cases := []CouplingModel{
		{Chunks: 1, ProduceS: 5, TransferS: 1, ConsumeS: 5},
		{Chunks: 10, ProduceS: 0.1, TransferS: 0, ConsumeS: 10}, // consumer-bound
		{Chunks: 10, ProduceS: 10, TransferS: 0, ConsumeS: 0.1}, // producer-bound
		{Chunks: 1000, ProduceS: 0.01, TransferS: 0.05, ConsumeS: 0.01},
	}
	for i, m := range cases {
		staged, err := m.StagedMakespan()
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := m.StreamedMakespan()
		if err != nil {
			t.Fatal(err)
		}
		if streamed > staged+1e-9 {
			t.Errorf("case %d: streamed %v worse than staged %v", i, streamed, staged)
		}
	}
}

// Property: any random write/close/read interleaving preserves content and
// order per file.
func TestStoreRandomInterleavingsProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewStore()
		nFiles := 1 + rng.Intn(4)
		type fileState struct {
			w      *Writer
			wrote  []byte
			closed bool
		}
		files := map[string]*fileState{}
		var paths []string
		for i := 0; i < nFiles; i++ {
			path := fmt.Sprintf("f%d", i)
			w, err := s.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = &fileState{w: w}
			paths = append(paths, path)
		}
		for op := 0; op < 100; op++ {
			path := paths[rng.Intn(len(paths))]
			st := files[path]
			if st.closed || rng.Intn(10) == 0 {
				_ = st.w.Close()
				st.closed = true
				continue
			}
			chunk := make([]byte, 1+rng.Intn(32))
			rng.Read(chunk)
			if _, err := st.w.Write(chunk); err != nil {
				t.Fatal(err)
			}
			st.wrote = append(st.wrote, chunk...)
		}
		for _, path := range paths {
			_ = files[path].w.Close()
			r, err := s.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, files[path].wrote) {
				t.Fatalf("trial %d: file %s corrupted (%d vs %d bytes)",
					trial, path, len(got), len(files[path].wrote))
			}
		}
	}
}
