// Package stream provides typed, composable streaming building blocks in
// the style of FastFlow and WindFlow (Sections 2.4 and 2.5 of the paper):
// pipelines of operators connected by channels, farms of parallel workers
// with optional order preservation, and windowed operators for continuous
// analytics (windows.go).
//
// Operators run on goroutines and propagate cancellation through a context.
// Backpressure is inherent: every inter-operator channel is bounded.
package stream

import (
	"context"
	"runtime"
	"sync"
)

// defaultBuffer is the inter-operator channel capacity.
const defaultBuffer = 64

// Stream is a typed data stream.
type Stream[T any] struct {
	ch  <-chan T
	ctx context.Context
}

// options configures an operator.
type options struct {
	workers int
	ordered bool
}

// Option configures parallel operators.
type Option func(*options)

// Workers sets the degree of parallelism of a farm operator. Values below 1
// fall back to 1; the default is runtime.NumCPU().
func Workers(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.workers = n
		} else {
			o.workers = 1
		}
	}
}

// Ordered makes a farm emit results in input order (WindFlow's default for
// keyless operators). Costs a reordering buffer.
func Ordered() Option { return func(o *options) { o.ordered = true } }

func buildOptions(opts []Option) options {
	o := options{workers: runtime.NumCPU()}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// FromSlice emits the elements of xs then closes the stream.
func FromSlice[T any](ctx context.Context, xs []T) *Stream[T] {
	ch := make(chan T, defaultBuffer)
	go func() {
		defer close(ch)
		for _, x := range xs {
			select {
			case ch <- x:
			case <-ctx.Done():
				return
			}
		}
	}()
	return &Stream[T]{ch: ch, ctx: ctx}
}

// Collect drains the stream into a slice. It stops early if the context is
// cancelled, returning what was collected and ctx.Err().
func (s *Stream[T]) Collect() ([]T, error) {
	var out []T
	for {
		select {
		case v, ok := <-s.ch:
			if !ok {
				return out, nil
			}
			out = append(out, v)
		case <-s.ctx.Done():
			// Drain nothing further; report cancellation.
			return out, s.ctx.Err()
		}
	}
}

// indexed carries a sequence number through a farm for order restoration.
type indexed[T any] struct {
	seq int
	val T
}

// Map applies f to every item using a farm of workers. With Ordered(),
// output order matches input order; otherwise output order is completion
// order.
func Map[I, O any](s *Stream[I], f func(I) O, opts ...Option) *Stream[O] {
	o := buildOptions(opts)
	out := make(chan O, defaultBuffer)

	if o.workers == 1 {
		// Fast path: a single worker is inherently ordered.
		go func() {
			defer close(out)
			for v := range s.ch {
				select {
				case out <- f(v):
				case <-s.ctx.Done():
					return
				}
			}
		}()
		return &Stream[O]{ch: out, ctx: s.ctx}
	}

	// Emitter: tag inputs with sequence numbers.
	tagged := make(chan indexed[I], defaultBuffer)
	go func() {
		defer close(tagged)
		seq := 0
		for v := range s.ch {
			select {
			case tagged <- indexed[I]{seq, v}:
				seq++
			case <-s.ctx.Done():
				return
			}
		}
	}()

	results := make(chan indexed[O], defaultBuffer)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range tagged {
				select {
				case results <- indexed[O]{item.seq, f(item.val)}:
				case <-s.ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: optionally restore order.
	go func() {
		defer close(out)
		if !o.ordered {
			for r := range results {
				select {
				case out <- r.val:
				case <-s.ctx.Done():
					return
				}
			}
			return
		}
		pending := map[int]O{}
		next := 0
		for r := range results {
			pending[r.seq] = r.val
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				select {
				case out <- v:
				case <-s.ctx.Done():
					return
				}
			}
		}
		// Flush any remainder in order (possible only on cancellation).
		for {
			v, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			select {
			case out <- v:
			case <-s.ctx.Done():
				return
			}
		}
	}()
	return &Stream[O]{ch: out, ctx: s.ctx}
}
