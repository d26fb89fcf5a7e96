// Package bigdata implements the Big-Data-management substrate (Section 2.5
// of the paper): a ParSoDA-style structured parallel data-analysis pipeline
// and a BLEST-ML-style learned block-size estimator for data partitioning
// (blestml.go).
package bigdata

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Pipeline is a ParSoDA-style analysis: data flows through a mapping
// phase, is partitioned into groups, and each group is reduced — with the
// map phase executed by a worker pool, mirroring ParSoDA's parallel
// execution on HPC systems.
//
// The type parameters are the input item type I and the mapped item type M.
type Pipeline[I, M any] struct {
	mapper  func(I) (M, error)
	keyFn   func(M) string
	workers int
}

// NewPipeline returns an empty pipeline with the given map-phase
// parallelism (values < 1 become 1).
func NewPipeline[I, M any](workers int) *Pipeline[I, M] {
	if workers < 1 {
		workers = 1
	}
	return &Pipeline[I, M]{workers: workers}
}

// Map sets the mapping function (required).
func (p *Pipeline[I, M]) Map(f func(I) (M, error)) *Pipeline[I, M] {
	p.mapper = f
	return p
}

// GroupBy sets the partitioning key (required).
func (p *Pipeline[I, M]) GroupBy(key func(M) string) *Pipeline[I, M] {
	p.keyFn = key
	return p
}

// Group is one partition of mapped items, ready for reduction.
type Group[M any] struct {
	Key   string
	Items []M
}

// Run executes the pipeline over items: map (parallel worker pool, input
// order preserved), group by key. Groups are
// returned sorted by key. The first mapping error aborts the run.
func (p *Pipeline[I, M]) Run(ctx context.Context, items []I) ([]Group[M], error) {
	if p.mapper == nil {
		return nil, errors.New("bigdata: pipeline has no Map phase")
	}
	if p.keyFn == nil {
		return nil, errors.New("bigdata: pipeline has no GroupBy phase")
	}
	// Parallel map phase over index ranges.
	mapped := make([]M, len(items))
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	chunk := (len(items) + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= len(items) {
			break
		}
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					errs[w] = ctx.Err()
					return
				}
				m, err := p.mapper(items[i])
				if err != nil {
					errs[w] = fmt.Errorf("bigdata: mapping item %d: %w", i, err)
					return
				}
				mapped[i] = m
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Partitioning phase.
	byKey := map[string][]M{}
	for _, m := range mapped {
		k := p.keyFn(m)
		byKey[k] = append(byKey[k], m)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Group[M], 0, len(keys))
	for _, k := range keys {
		out = append(out, Group[M]{Key: k, Items: byKey[k]})
	}
	return out, nil
}

// ReduceGroups applies a reduction to every group in parallel, returning
// results keyed by group key.
func ReduceGroups[M, R any](ctx context.Context, groups []Group[M], workers int, reduce func(Group[M]) (R, error)) (map[string]R, error) {
	if workers < 1 {
		workers = 1
	}
	type res struct {
		key string
		val R
		err error
	}
	sem := make(chan struct{}, workers)
	out := make(chan res, len(groups))
	for _, g := range groups {
		g := g
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			if ctx.Err() != nil {
				out <- res{key: g.Key, err: ctx.Err()}
				return
			}
			v, err := reduce(g)
			out <- res{key: g.Key, val: v, err: err}
		}()
	}
	results := map[string]R{}
	var firstErr error
	for range groups {
		r := <-out
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("bigdata: reducing group %q: %w", r.key, r.err)
			continue
		}
		if r.err == nil {
			results[r.key] = r.val
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
