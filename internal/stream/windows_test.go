package stream

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func events(keyed map[string][]int) []Event[int] {
	var out []Event[int]
	// Interleave keys deterministically: round-robin over sorted keys.
	keys := make([]string, 0, len(keyed))
	for k := range keyed {
		keys = append(keys, k)
	}
	// simple insertion sort for determinism
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	i := 0
	for {
		emitted := false
		for _, k := range keys {
			if i < len(keyed[k]) {
				out = append(out, Event[int]{Key: k, Val: keyed[k][i]})
				emitted = true
			}
		}
		if !emitted {
			return out
		}
		i++
	}
}

func TestTumblingCount(t *testing.T) {
	ctx := context.Background()
	evs := events(map[string][]int{
		"a": {1, 2, 3, 4, 5},
		"b": {10, 20, 30},
	})
	wins, err := TumblingCount(FromSlice(ctx, evs), 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// a: [1 2], [3 4], flush [5]; b: [10 20], flush [30] → 5 windows.
	if len(wins) != 5 {
		t.Fatalf("windows = %d: %+v", len(wins), wins)
	}
	byKey := map[string][][]int{}
	for _, w := range wins {
		byKey[w.Key] = append(byKey[w.Key], w.Items)
	}
	if got := byKey["a"]; len(got) != 3 || got[0][0] != 1 || got[0][1] != 2 || got[2][0] != 5 {
		t.Errorf("a windows = %v", got)
	}
	if got := byKey["b"]; len(got) != 2 || got[1][0] != 30 {
		t.Errorf("b windows = %v", got)
	}
}

func TestTumblingCountInvalidSize(t *testing.T) {
	ctx := context.Background()
	wins, err := TumblingCount(FromSlice(ctx, events(map[string][]int{"a": {1}})), 0).Collect()
	if err != nil || len(wins) != 0 {
		t.Errorf("n=0 should produce empty stream, got %v, %v", wins, err)
	}
}

// Property: tumbling count windows partition each key's items exactly.
func TestTumblingCountConservation(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		ctx := context.Background()
		var evs []Event[int]
		for _, v := range raw {
			key := string(rune('a' + int(v)%3))
			evs = append(evs, Event[int]{Key: key, Val: int(v)})
		}
		wins, err := TumblingCount(FromSlice(ctx, evs), n).Collect()
		if err != nil {
			return false
		}
		perKeyIn := map[string][]int{}
		for _, ev := range evs {
			perKeyIn[ev.Key] = append(perKeyIn[ev.Key], ev.Val)
		}
		perKeyOut := map[string][]int{}
		for _, w := range wins {
			if len(w.Items) > n || len(w.Items) == 0 {
				return false
			}
			perKeyOut[w.Key] = append(perKeyOut[w.Key], w.Items...)
		}
		if len(perKeyIn) != len(perKeyOut) && len(raw) > 0 {
			return len(perKeyOut) <= len(perKeyIn)
		}
		for k, in := range perKeyIn {
			out := perKeyOut[k]
			if len(in) != len(out) {
				return false
			}
			for i := range in {
				if in[i] != out[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggregateWindows(t *testing.T) {
	ctx := context.Background()
	evs := events(map[string][]int{"a": {1, 2, 3, 4}})
	wins := TumblingCount(FromSlice(ctx, evs), 2)
	sums, err := AggregateWindows(wins, func(w Window[int]) int {
		s := 0
		for _, v := range w.Items {
			s += v
		}
		return s
	}, Workers(1)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0] != 3 || sums[1] != 7 {
		t.Errorf("sums = %v", sums)
	}
}

func TestKeyBy(t *testing.T) {
	ctx := context.Background()
	s := FromSlice(ctx, []int{1, 2, 3, 4, 5, 6})
	keyed := KeyBy(ctx, s, func(x int) string {
		if x%2 == 0 {
			return "even"
		}
		return "odd"
	})
	evs, err := keyed.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Val != i+1 {
			t.Errorf("event %d value = %d, want %d", i, ev.Val, i+1)
		}
	}
	if evs[0].Key != "odd" || evs[1].Key != "even" {
		t.Errorf("keys = %s, %s", evs[0].Key, evs[1].Key)
	}
}

// End-to-end WindFlow-style pipeline: keyed sensor readings → tumbling
// windows → per-window mean, with a parallel aggregation farm.
func TestWindowedPipelineEndToEnd(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	readings := make([]float64, 1000)
	for i := range readings {
		readings[i] = rng.Float64() * 100
	}
	src := FromSlice(ctx, readings)
	keyed := KeyBy(ctx, src, func(v float64) string {
		if v < 50 {
			return "low"
		}
		return "high"
	})
	wins := TumblingCount(keyed, 10)
	means, err := AggregateWindows(wins, func(w Window[float64]) float64 {
		s := 0.0
		for _, v := range w.Items {
			s += v
		}
		return s / float64(len(w.Items))
	}, Workers(4)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(means) == 0 {
		t.Fatal("no windows")
	}
	for _, m := range means {
		if m < 0 || m > 100 {
			t.Errorf("mean out of range: %v", m)
		}
	}
}
