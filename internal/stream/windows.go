package stream

import (
	"context"
	"sort"
)

// This file implements WindFlow-style windowed operators: keyed partitioning
// and count/time-based windows over event streams. Windows carry their key
// and bounds so downstream aggregations can label results.

// Event is a timestamped, keyed record — the unit of windowed processing.
type Event[T any] struct {
	Key  string
	Time float64 // event time, seconds
	Val  T
}

// Window is a completed window of events for one key.
type Window[T any] struct {
	Key   string
	Start float64 // inclusive; for count windows, index of first event
	End   float64 // exclusive
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
		count := map[string]int{} // total items seen per key
		emit := func(key string, items []T, firstIdx int) bool {
			w := Window[T]{Key: key, Start: float64(firstIdx), End: float64(firstIdx + len(items)), Items: items}
			select {
			case out <- w:
				return true
			case <-s.ctx.Done():
				return false
			}
		}
		for ev := range s.ch {
			buf[ev.Key] = append(buf[ev.Key], ev.Val)
			count[ev.Key]++
			if len(buf[ev.Key]) == n {
				items := buf[ev.Key]
				buf[ev.Key] = nil
				if !emit(ev.Key, items, count[ev.Key]-n) {
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
			if !emit(k, buf[k], count[k]-len(buf[k])) {
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

// KeyBy partitions a plain stream into events keyed by keyFn with a
// synthetic arrival index as event time.
func KeyBy[T any](ctx context.Context, s *Stream[T], keyFn func(T) string) *Stream[Event[T]] {
	out := make(chan Event[T], defaultBuffer)
	go func() {
		defer close(out)
		i := 0
		for v := range s.ch {
			select {
			case out <- Event[T]{Key: keyFn(v), Time: float64(i), Val: v}:
				i++
			case <-ctx.Done():
				return
			}
		}
	}()
	return &Stream[Event[T]]{ch: out, ctx: ctx}
}

// TumblingTime groups each key's events into fixed, aligned time windows of
// the given width: window i covers [i*width, (i+1)*width). Events must
// arrive in non-decreasing time order per key; a window is emitted when an
// event beyond its end arrives, and all open windows flush at stream close.
func TumblingTime[T any](s *Stream[Event[T]], width float64) *Stream[Window[T]] {
	out := make(chan Window[T], defaultBuffer)
	go func() {
		defer close(out)
		if width <= 0 {
			return
		}
		type open struct {
			start float64
			items []T
		}
		wins := map[string]*open{}
		emit := func(key string, o *open) bool {
			select {
			case out <- Window[T]{Key: key, Start: o.start, End: o.start + width, Items: o.items}:
				return true
			case <-s.ctx.Done():
				return false
			}
		}
		for ev := range s.ch {
			startOf := func(t float64) float64 {
				return float64(int(t/width)) * width
			}
			w, ok := wins[ev.Key]
			if ok && ev.Time >= w.start+width {
				if !emit(ev.Key, w) {
					return
				}
				ok = false
			}
			if !ok {
				wins[ev.Key] = &open{start: startOf(ev.Time), items: []T{ev.Val}}
				continue
			}
			w.items = append(w.items, ev.Val)
		}
		keys := make([]string, 0, len(wins))
		for k := range wins {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !emit(k, wins[k]) {
				return
			}
		}
	}()
	return &Stream[Window[T]]{ch: out, ctx: s.ctx}
}

// SlidingCount emits, per key, a window of the last n items every slide
// arrivals (slide <= n gives overlapping windows). Windows are emitted only
// once full (no partial flush), matching WindFlow's CB-window semantics.
func SlidingCount[T any](s *Stream[Event[T]], n, slide int) *Stream[Window[T]] {
	out := make(chan Window[T], defaultBuffer)
	go func() {
		defer close(out)
		if n <= 0 || slide <= 0 {
			return
		}
		buf := map[string][]T{}
		seen := map[string]int{}
		sinceEmit := map[string]int{}
		for ev := range s.ch {
			buf[ev.Key] = append(buf[ev.Key], ev.Val)
			if len(buf[ev.Key]) > n {
				buf[ev.Key] = buf[ev.Key][len(buf[ev.Key])-n:]
			}
			seen[ev.Key]++
			sinceEmit[ev.Key]++
			if len(buf[ev.Key]) == n && sinceEmit[ev.Key] >= slide {
				sinceEmit[ev.Key] = 0
				items := append([]T(nil), buf[ev.Key]...)
				w := Window[T]{
					Key:   ev.Key,
					Start: float64(seen[ev.Key] - n),
					End:   float64(seen[ev.Key]),
					Items: items,
				}
				select {
				case out <- w:
				case <-s.ctx.Done():
					return
				}
			}
		}
	}()
	return &Stream[Window[T]]{ch: out, ctx: s.ctx}
}
