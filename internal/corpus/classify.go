package corpus

// The sharded classification engine. The corpus is cut into fixed-size
// shards of ShardSize entries; each shard's classification aggregate is an
// exact-integer summary (confusion counts, length sums) that merges
// associatively, and exp.MapShards folds the shards in index order, so the
// result is bit-identical at any worker count. Every shard aggregate is
// memoized in the content-addressed store under a key derived from the
// generator parameters, the compiled keyword scheme, and the shard's entry
// range — never from the total corpus size — which gives the two scaling
// properties the engine is for:
//
//   - warm re-run: every shard resolves from the store, zero bodies execute;
//   - growth: extending N leaves the keys of untouched full shards
//     identical, so only the previously-partial shard and the new tail
//     shards execute (partial invalidation, pinned by tests).

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
)

// ShardSize is the fixed number of entries per memo shard. It is a
// constant, like par's shard geometry: shard boundaries must depend only on
// entry indices, never on worker count or total size, or the memo keys
// would not survive re-sharding.
const ShardSize = 4096

// shardVersion is folded into every shard memo key; bump it when the
// aggregate schema or the generation recipe changes.
const shardVersion = "corpus/shard/v1"

// NumShards reports how many shards a corpus of n entries splits into.
func NumShards(n int) int { return exp.NumShards(n, ShardSize) }

// Aggregate is the exact-integer classification summary of a corpus slice.
// Merging is elementwise addition (min/max for the length bounds), so the
// merged value is independent of merge order and worker count by
// construction. It round-trips through JSON for content-addressed storage.
type Aggregate struct {
	// Total counts classified entries.
	Total int `json:"total"`
	// Confusion[t][p] counts entries whose true direction is t and
	// predicted direction is p (canonical indices).
	Confusion [5][5]int `json:"confusion"`
	// DescBytes sums description lengths.
	DescBytes int64 `json:"desc_bytes"`
	// MinLen / MaxLen bound description lengths.
	MinLen int `json:"min_len"`
	MaxLen int `json:"max_len"`
	// KeywordHits sums the distinct winning-direction keyword matches.
	KeywordHits int64 `json:"keyword_hits"`
}

// Merge folds b into a. The zero Aggregate is the identity.
func (a *Aggregate) Merge(b *Aggregate) {
	if b.Total == 0 {
		return
	}
	if a.Total == 0 {
		*a = *b
		return
	}
	a.Total += b.Total
	for t := 0; t < 5; t++ {
		for p := 0; p < 5; p++ {
			a.Confusion[t][p] += b.Confusion[t][p]
		}
	}
	a.DescBytes += b.DescBytes
	a.MinLen = min(a.MinLen, b.MinLen)
	a.MaxLen = max(a.MaxLen, b.MaxLen)
	a.KeywordHits += b.KeywordHits
}

// TrueCount returns how many entries were generated with direction d.
func (a *Aggregate) TrueCount(d int) int {
	n := 0
	for p := 0; p < 5; p++ {
		n += a.Confusion[d][p]
	}
	return n
}

// PredictedCount returns how many entries were classified into direction d.
func (a *Aggregate) PredictedCount(d int) int {
	n := 0
	for t := 0; t < 5; t++ {
		n += a.Confusion[t][d]
	}
	return n
}

// Correct returns the diagonal sum: entries whose prediction matched the
// generated direction.
func (a *Aggregate) Correct() int {
	n := 0
	for d := 0; d < 5; d++ {
		n += a.Confusion[d][d]
	}
	return n
}

// Accuracy is the fraction of correctly classified entries.
func (a *Aggregate) Accuracy() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct()) / float64(a.Total)
}

// scratchPool holds the classifier scratch of in-flight shard bodies,
// reused across shards and across whole runs.
var scratchPool = par.NewPool(func() *core.ClassifyScratch { return &core.ClassifyScratch{} })

// shardKey derives shard s's memo key. The fingerprint covers everything
// that determines the shard's aggregate — generation parameters, root seed,
// compiled keyword scheme, shard index and entry range — and nothing that
// doesn't (total corpus size, worker count).
func (g *Generator) shardKey(s, lo, hi int) cas.Key {
	fp := fmt.Sprintf("%s|scheme=%s|%s|seed=%d|range=%d:%d",
		shardVersion, core.SchemeFingerprint(), g.spec.fingerprint(), g.seed, lo, hi)
	return cas.StepKey("corpus", fmt.Sprintf("shard-%d", s), fp, nil)
}

// classifyShard classifies entries [lo, hi) into a fresh aggregate, a word
// at a time, on the pooled scratch s.
func classifyShard(g *Generator, lo, hi int, s *core.ClassifyScratch) Aggregate {
	agg := Aggregate{MinLen: math.MaxInt}
	for i := lo; i < hi; i++ {
		dir, pred, n := g.Classify(i, s)
		agg.Total++
		agg.Confusion[dir][pred]++
		agg.DescBytes += int64(n)
		agg.MinLen = min(agg.MinLen, n)
		agg.MaxLen = max(agg.MaxLen, n)
		agg.KeywordHits += int64(s.Matched())
	}
	return agg
}

// ClassifyAll classifies the whole corpus of g under env through
// exp.MapShards: each shard is either served from env.Store or classified
// through the word-stride table on pooled scratch, and the shard aggregates
// fold in shard order. The Aggregate is bit-identical for any worker count
// and any cache state; the ShardStats hit/execute split is also
// accumulated on env.Metrics as corpus.shards.hit / corpus.shards.exec.
func ClassifyAll(env *exp.Env, g *Generator) (*Aggregate, exp.ShardStats, error) {
	return exp.MapShards(env, "corpus", g.spec.N, ShardSize, g.shardKey,
		func(_, lo, hi int) (Aggregate, error) {
			s := scratchPool.Get()
			defer scratchPool.Put(s)
			return classifyShard(g, lo, hi, s), nil
		}, (*Aggregate).Merge)
}

// RenderClassify renders the classification view of an aggregate: the 5×5
// confusion matrix, accuracy, and the predicted-direction distribution.
// Pure integer state in, deterministic bytes out.
func (a *Aggregate) RenderClassify() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus classification: %d entries\n\n", a.Total)
	fmt.Fprintf(&b, "%-6s", "t\\p")
	dirs := catalog.Directions()
	for _, d := range dirs {
		fmt.Fprintf(&b, "%9s", d.Initials())
	}
	b.WriteByte('\n')
	for t, d := range dirs {
		fmt.Fprintf(&b, "%-6s", d.Initials())
		for p := range dirs {
			fmt.Fprintf(&b, "%9d", a.Confusion[t][p])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\naccuracy: %.4f (%d/%d correct, %d misclassified)\n",
		a.Accuracy(), a.Correct(), a.Total, a.Total-a.Correct())
	fmt.Fprintf(&b, "\n%-26s %9s %9s\n", "direction", "true", "predicted")
	for i, d := range dirs {
		fmt.Fprintf(&b, "%-26s %9d %9d\n", string(d), a.TrueCount(i), a.PredictedCount(i))
	}
	return b.String()
}

// RenderStats renders the corpus-shape view: direction distribution with
// shares, and description length statistics.
func (a *Aggregate) RenderStats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus statistics: %d entries\n\n", a.Total)
	fmt.Fprintf(&b, "%-26s %9s %8s\n", "direction", "entries", "share")
	for i, d := range catalog.Directions() {
		share := 0.0
		if a.Total > 0 {
			share = float64(a.TrueCount(i)) / float64(a.Total)
		}
		fmt.Fprintf(&b, "%-26s %9d %7.2f%%\n", string(d), a.TrueCount(i), share*100)
	}
	meanLen, meanHits := 0.0, 0.0
	minLen := a.MinLen
	if a.Total > 0 {
		meanLen = float64(a.DescBytes) / float64(a.Total)
		meanHits = float64(a.KeywordHits) / float64(a.Total)
	} else {
		minLen = 0
	}
	fmt.Fprintf(&b, "\ndescription length: min %d, mean %.1f, max %d bytes (%d total)\n",
		minLen, meanLen, a.MaxLen, a.DescBytes)
	fmt.Fprintf(&b, "winning-direction keyword hits: %.2f per entry\n", meanHits)
	return b.String()
}
