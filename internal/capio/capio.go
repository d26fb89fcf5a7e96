// Package capio implements a CAPIO-style middleware (Martinelli et al.,
// HiPC 2023; Sections 2.4 and 3.6 of the paper): a user-space virtual file
// store that lets a producer application and a consumer application couple
// through files *without code changes*, turning staged file exchange into
// streaming — the consumer can read committed chunks while the producer is
// still writing, overlapping the two applications' executions.
//
// Two layers are provided:
//
//   - Store: a concurrency-safe in-memory file store with streaming reads
//     (blocking on unwritten data, like a POSIX read on a growing file);
//   - CouplingModel (model.go): a deterministic simulation comparing staged
//     versus streamed coupling makespans, the experiment of Section 3.6.
package capio

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrClosed is returned when writing to a closed file.
var ErrClosed = errors.New("capio: file closed")

// file is one stored file: committed chunks plus a closed flag.
type file struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte
	closed bool
}

func newFile() *file {
	f := &file{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Store is the in-memory virtual file system.
type Store struct {
	mu    sync.Mutex
	files map[string]*file
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{files: map[string]*file{}} }

// Create opens a file for writing. Creating an existing path fails (CAPIO
// files are write-once streams).
func (s *Store) Create(path string) (*Writer, error) {
	if path == "" {
		return nil, errors.New("capio: empty path")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[path]; dup {
		return nil, fmt.Errorf("capio: %q already exists", path)
	}
	f := newFile()
	s.files[path] = f
	return &Writer{f: f}, nil
}

// Open returns a streaming reader for a path. Opening a not-yet-created
// path fails; use OpenWait to block until the producer creates it.
func (s *Store) Open(path string) (*Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("capio: %q does not exist", path)
	}
	return &Reader{f: f}, nil
}

// Writer is the producer-side handle.
type Writer struct {
	f    *file
	once sync.Once
}

// Write commits one chunk (visible to readers immediately — the streaming
// semantics CAPIO injects).
func (w *Writer) Write(p []byte) (int, error) {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	if w.f.closed {
		return 0, ErrClosed
	}
	chunk := append([]byte(nil), p...)
	w.f.chunks = append(w.f.chunks, chunk)
	w.f.cond.Broadcast()
	return len(p), nil
}

// Close marks the stream complete; readers then see EOF after the last
// chunk. Closing twice is harmless.
func (w *Writer) Close() error {
	w.once.Do(func() {
		w.f.mu.Lock()
		w.f.closed = true
		w.f.cond.Broadcast()
		w.f.mu.Unlock()
	})
	return nil
}

// Reader is the consumer-side handle. NextChunk blocks until a chunk is
// available or the stream closes.
type Reader struct {
	f   *file
	pos int
}

// NextChunk returns the next committed chunk, or io.EOF after the producer
// closed and all chunks were consumed.
func (r *Reader) NextChunk() ([]byte, error) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	for r.pos >= len(r.f.chunks) && !r.f.closed {
		r.f.cond.Wait()
	}
	if r.pos < len(r.f.chunks) {
		c := r.f.chunks[r.pos]
		r.pos++
		return c, nil
	}
	return nil, io.EOF
}

// ReadAll drains the remaining stream into one buffer (blocking until the
// producer closes).
func (r *Reader) ReadAll() ([]byte, error) {
	var out []byte
	for {
		c, err := r.NextChunk()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, c...)
	}
}
