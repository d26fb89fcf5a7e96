package stream

import (
	"context"
	"sort"
)

// This file implements WindFlow-style windowed operators: keyed partitioning
// and count-based windows over event streams. Windows carry their key so
// downstream aggregations can label results.

// Event is a keyed record — the unit of windowed processing.
type Event[T any] struct {
	Key string
	Val T
}

// Window is a completed window of events for one key.
type Window[T any] struct {
	Key   string
	Items []T
}

// TumblingCount groups every key's events into consecutive windows of
// exactly n items. Incomplete trailing windows are emitted on stream close
// (flush semantics), marked by len(Items) < n.
func TumblingCount[T any](s *Stream[Event[T]], n int) *Stream[Window[T]] {
	out := make(chan Window[T], defaultBuffer)
	go func() {
		defer close(out)
		if n <= 0 {
			return
		}
		buf := map[string][]T{}
		emit := func(key string, items []T) bool {
			select {
			case out <- Window[T]{Key: key, Items: items}:
				return true
			case <-s.ctx.Done():
				return false
			}
		}
		for ev := range s.ch {
			buf[ev.Key] = append(buf[ev.Key], ev.Val)
			if len(buf[ev.Key]) == n {
				items := buf[ev.Key]
				buf[ev.Key] = nil
				if !emit(ev.Key, items) {
					return
				}
			}
		}
		// Flush incomplete windows deterministically (key order).
		keys := make([]string, 0, len(buf))
		for k := range buf {
			if len(buf[k]) > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !emit(k, buf[k]) {
				return
			}
		}
	}()
	return &Stream[Window[T]]{ch: out, ctx: s.ctx}
}

// AggregateWindows applies agg to each window, producing one keyed result
// per window — the typical map-after-window pattern.
func AggregateWindows[T, R any](s *Stream[Window[T]], agg func(Window[T]) R, opts ...Option) *Stream[R] {
	return Map(s, agg, opts...)
}

// KeyBy partitions a plain stream into events keyed by keyFn.
func KeyBy[T any](ctx context.Context, s *Stream[T], keyFn func(T) string) *Stream[Event[T]] {
	out := make(chan Event[T], defaultBuffer)
	go func() {
		defer close(out)
		for v := range s.ch {
			select {
			case out <- Event[T]{Key: keyFn(v), Val: v}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return &Stream[Event[T]]{ch: out, ctx: ctx}
}
