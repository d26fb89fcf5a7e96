package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/telemetry"
)

func testEnv(workers int, store cas.Store) *exp.Env {
	sim := clock.NewSim(1)
	env := &exp.Env{Seed: 1, Clock: sim, Metrics: telemetry.NewWithClock(sim), Store: store}
	if workers > 0 {
		env.Par = []par.Option{par.Workers(workers)}
	}
	return env
}

// Entry i must be a pure function of (seed, i): independent of the buffer
// it lands in, of generation order, and of any other entry.
func TestGeneratorDeterminism(t *testing.T) {
	g := NewGenerator(DefaultSpec(1000), 42)
	for _, i := range []int{0, 1, 17, 999} {
		a, da := g.Describe(i, nil)
		b, db := g.Describe(i, make([]byte, 0, 4096))
		if !bytes.Equal(a, b) || da != db {
			t.Fatalf("entry %d not reproducible: %q/%d vs %q/%d", i, a, da, b, db)
		}
		tool := g.Tool(i)
		if tool.Description != string(a) || tool.Direction != catalog.Directions()[da] {
			t.Fatalf("Tool(%d) disagrees with Describe: %+v vs %q/%d", i, tool, a, da)
		}
	}
	// A second generator over the same (spec, seed) is the same corpus; a
	// different seed is a different one.
	g2 := NewGenerator(DefaultSpec(1000), 42)
	a, _ := g.Describe(123, nil)
	b, _ := g2.Describe(123, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("same (spec, seed) produced different corpora")
	}
	g3 := NewGenerator(DefaultSpec(1000), 43)
	c, _ := g3.Describe(123, nil)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same entry")
	}
}

// Steady-state generation must not allocate: Describe into a warm buffer.
func TestDescribeZeroAllocs(t *testing.T) {
	g := NewGenerator(DefaultSpec(1000), 7)
	buf, _ := g.Describe(0, nil)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = g.Describe(i%1000, buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Describe allocates %.1f times per op, want 0", allocs)
	}
}

// The shard body must not allocate either: classifyShard over 1000
// entries on a warm scratch.
func TestClassifyEntryZeroAllocs(t *testing.T) {
	g := NewGenerator(DefaultSpec(1000), 7)
	var sc core.ClassifyScratch
	g.Classify(0, &sc)
	allocs := testing.AllocsPerRun(20, func() {
		classifyShard(g, 0, g.spec.N, &sc)
	})
	if allocs != 0 {
		t.Fatalf("a 1000-entry shard body allocates %.1f times, want 0", allocs)
	}
}

// A caller's scratch stays on its stack: a fresh scratch allocates only its
// seen and fired slices, as scenarios.MutateCorpus makes one per op.
func TestClassifyEntryCallerStack(t *testing.T) {
	g := NewGenerator(DefaultSpec(1000), 7)
	allocs := testing.AllocsPerRun(100, func() {
		var sc core.ClassifyScratch
		g.Classify(3, &sc)
	})
	if allocs != 2 {
		t.Fatalf("a fresh scratch costs %.1f allocs, want 2", allocs)
	}
}

// The filler vocabulary must be classification-neutral: no keyword may
// occur in any space-joined sequence of filler words. Joining the whole
// vocabulary (and its reverse, to cover both adjacency orders) must score
// zero in every direction.
func TestFillerVocabularyIsNeutral(t *testing.T) {
	words := fillerVocab[:]
	joined := strings.Join(words, " ")
	rev := make([]string, len(words))
	for i, w := range words {
		rev[len(words)-1-i] = w
	}
	for _, text := range []string{joined, strings.Join(rev, " ")} {
		cl := core.ClassifyDescription(text)
		if len(cl.Scores) != 0 {
			t.Fatalf("filler vocabulary matches keywords: %v in %q", cl.Scores, text)
		}
	}
}

// The mix knob steers the generated direction distribution.
func TestGeneratorMix(t *testing.T) {
	spec := DefaultSpec(5000)
	spec.Mix = [5]float64{0, 3, 0, 0, 1} // orchestration-heavy, some big data
	g := NewGenerator(spec, 11)
	var counts [5]int
	for i := 0; i < spec.N; i++ {
		_, d := g.Describe(i, nil)
		counts[d]++
	}
	if counts[0] != 0 || counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight directions generated entries: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[4])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("mix 3:1 produced ratio %.2f (%v)", ratio, counts)
	}
}

// naiveAggregate recomputes the aggregate with the allocating convenience
// classifier — the semantic oracle for the sharded pipeline.
func naiveAggregate(g *Generator) Aggregate {
	var agg Aggregate
	for i := 0; i < g.spec.N; i++ {
		desc, dir := g.Describe(i, nil)
		cl := core.ClassifyDescription(string(desc))
		pred := cl.Direction.Index()
		agg.Total++
		agg.Confusion[dir][pred]++
		agg.DescBytes += int64(len(desc))
		if agg.Total == 1 {
			agg.MinLen = len(desc)
			agg.MaxLen = len(desc)
		} else {
			agg.MinLen = min(agg.MinLen, len(desc))
			agg.MaxLen = max(agg.MaxLen, len(desc))
		}
		agg.KeywordHits += int64(len(cl.Matched))
	}
	return agg
}

// The sharded pipeline, which classifies a word at a time, must agree
// exactly with classifying Describe's text through the public API.
func TestClassifyAllMatchesNaive(t *testing.T) {
	g := NewGenerator(DefaultSpec(2*ShardSize+123), 5)
	agg, stats, err := ClassifyAll(testEnv(4, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveAggregate(g)
	if !reflect.DeepEqual(*agg, want) {
		t.Fatalf("sharded aggregate diverges:\n got %+v\nwant %+v", *agg, want)
	}
	if stats.ShardsExecuted != NumShards(g.spec.N) || stats.ShardsCached != 0 {
		t.Fatalf("storeless run stats = %+v", stats)
	}
	if agg.Accuracy() < 0.55 {
		t.Fatalf("default corpus accuracy %.3f implausibly low", agg.Accuracy())
	}
}

// The word path agrees with the rendered text across the spec knobs: no
// overlap to mostly foreign keywords, no filler to filler-heavy entries,
// one keyword to many.
func TestWordPathMatchesNaiveAcrossSpecs(t *testing.T) {
	for _, overlap := range []float64{0, 0.4, 0.9} {
		for _, noise := range []int{0, 24} {
			for _, kw := range []int{1, 5, 8} {
				g := NewGenerator(Spec{N: 300, Overlap: overlap, Noise: noise, Keywords: kw}, 17)
				got := classifyShard(g, 0, g.spec.N, &core.ClassifyScratch{})
				if want := naiveAggregate(g); !reflect.DeepEqual(got, want) {
					t.Fatalf("overlap=%g noise=%d keywords=%d:\n got %+v\nwant %+v", overlap, noise, kw, got, want)
				}
			}
		}
	}
}

// An entry with no words is the empty description: length 0, classified as
// Orchestration, with no keyword hits.
func TestEmptyEntries(t *testing.T) {
	g := NewGenerator(Spec{N: 50}, 3)
	if desc, _ := g.Describe(0, nil); len(desc) != 0 {
		t.Fatalf("Describe of an empty entry = %q", desc)
	}
	var sc core.ClassifyScratch
	_, pred, n := g.Classify(0, &sc)
	if n != 0 || pred != catalog.Orchestration.Index() || sc.Matched() != 0 {
		t.Fatalf("Classify of an empty entry: pred=%d n=%d hits=%d", pred, n, sc.Matched())
	}
	got := classifyShard(g, 0, g.spec.N, &sc)
	if want := naiveAggregate(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty entries:\n got %+v\nwant %+v", got, want)
	}
	if got.DescBytes != 0 || got.MinLen != 0 || got.MaxLen != 0 || got.KeywordHits != 0 ||
		got.PredictedCount(catalog.Orchestration.Index()) != g.spec.N {
		t.Fatalf("empty entries aggregate: %+v", got)
	}
}

// Satellite: worker invariance — sequential and parallel runs produce
// byte-identical aggregates and rendered artifacts on a 10^4 corpus.
func TestClassifyAllWorkerInvariance(t *testing.T) {
	spec := DefaultSpec(10_000)
	var ref *Aggregate
	var refText string
	for _, workers := range []int{1, 4, 8} {
		g := NewGenerator(spec, 9)
		agg, _, err := ClassifyAll(testEnv(workers, nil), g)
		if err != nil {
			t.Fatal(err)
		}
		text := agg.RenderClassify() + agg.RenderStats()
		if ref == nil {
			ref, refText = agg, text
			continue
		}
		if !reflect.DeepEqual(*agg, *ref) {
			t.Fatalf("workers=%d aggregate differs from workers=1", workers)
		}
		if text != refText {
			t.Fatalf("workers=%d artifact bytes differ from workers=1", workers)
		}
	}
}

// Satellite: cold/warm — a warm store serves every shard, zero bodies run,
// and the bytes stay identical.
func TestClassifyAllColdWarm(t *testing.T) {
	spec := DefaultSpec(3*ShardSize + 7)
	store := cas.NewMemStore()
	g := NewGenerator(spec, 13)

	env := testEnv(4, store)
	cold, coldStats, err := ClassifyAll(env, g)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.ShardsExecuted != 4 || coldStats.ShardsCached != 0 {
		t.Fatalf("cold stats = %+v, want 4 executed", coldStats)
	}
	if got := env.Metrics.Counter("corpus.shards.exec"); got != 4 {
		t.Fatalf("corpus.shards.exec = %d, want 4", got)
	}

	warmEnv := testEnv(8, store)
	warm, warmStats, err := ClassifyAll(warmEnv, g)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.ShardsExecuted != 0 || warmStats.ShardsCached != 4 {
		t.Fatalf("warm stats = %+v, want 4 cached", warmStats)
	}
	if got := warmEnv.Metrics.Counter("corpus.shards.hit"); got != 4 {
		t.Fatalf("corpus.shards.hit = %d, want 4", got)
	}
	if !reflect.DeepEqual(*warm, *cold) {
		t.Fatal("warm aggregate differs from cold")
	}
}

// Tentpole: partial invalidation — growing the corpus leaves every
// untouched full shard's memo key valid; only the formerly-partial shard
// and the new tail execute.
func TestClassifyAllPartialInvalidation(t *testing.T) {
	store := cas.NewMemStore()
	const n1 = 2*ShardSize + 100
	spec1 := DefaultSpec(n1)
	if _, stats, err := ClassifyAll(testEnv(4, store), NewGenerator(spec1, 21)); err != nil {
		t.Fatal(err)
	} else if stats.ShardsExecuted != 3 {
		t.Fatalf("first run executed %d shards, want 3", stats.ShardsExecuted)
	}

	// Grow by one full shard: shards 0 and 1 are untouched (cache hits),
	// shard 2 changes range 100 → ShardSize (dirty), shard 3 is new.
	const n2 = 3*ShardSize + 100
	spec2 := DefaultSpec(n2)
	agg, stats, err := ClassifyAll(testEnv(4, store), NewGenerator(spec2, 21))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsCached != 2 || stats.ShardsExecuted != 2 {
		t.Fatalf("grown run stats = %+v, want 2 cached + 2 executed", stats)
	}
	want := naiveAggregate(NewGenerator(spec2, 21))
	if !reflect.DeepEqual(*agg, want) {
		t.Fatal("grown aggregate diverges from naive recomputation")
	}

	// A different seed shares nothing.
	if _, stats, err := ClassifyAll(testEnv(4, store), NewGenerator(spec2, 22)); err != nil {
		t.Fatal(err)
	} else if stats.ShardsCached != 0 {
		t.Fatalf("different seed hit %d cached shards", stats.ShardsCached)
	}
}

// Satellite: the generated corpus round-trips through the streamed catalog
// JSON — export → import → re-export byte-identical — and the imported
// descriptions classify exactly as the pipeline classified them.
func TestCorpusCatalogRoundTrip(t *testing.T) {
	g := NewGenerator(DefaultSpec(500), 31)
	var first bytes.Buffer
	if err := g.ExportTools(catalog.NewToolWriter(&first), g.spec.N); err != nil {
		t.Fatal(err)
	}
	var back []catalog.Tool
	if err := catalog.StreamTools(bytes.NewReader(first.Bytes()), func(tool catalog.Tool) error {
		back = append(back, tool)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(back) != g.spec.N {
		t.Fatalf("imported %d tools, want %d", len(back), g.spec.N)
	}
	var second bytes.Buffer
	tw := catalog.NewToolWriter(&second)
	for _, tool := range back {
		if err := tw.Write(tool); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-exported corpus stream differs from the original bytes")
	}

	// Classifying the imported tools entry by entry reproduces the
	// pipeline's confusion matrix.
	var agg Aggregate
	for _, tool := range back {
		pred := core.ClassifyDescription(tool.Description).Direction.Index()
		agg.Confusion[tool.Direction.Index()][pred]++
		agg.Total++
	}
	pipeline, _, err := ClassifyAll(testEnv(2, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Confusion != pipeline.Confusion {
		t.Fatal("imported-corpus confusion differs from the pipeline's")
	}
}

// Aggregate merge is associative with the zero value as identity, and
// survives the JSON round-trip the shard cache depends on.
func TestAggregateMergeAndJSON(t *testing.T) {
	g := NewGenerator(DefaultSpec(3*ShardSize), 3)
	sc := &core.ClassifyScratch{}
	var whole, pieces Aggregate
	whole = classifyShard(g, 0, 3*ShardSize, sc)
	for s := 0; s < 3; s++ {
		shard := classifyShard(g, s*ShardSize, (s+1)*ShardSize, sc)
		data, err := json.Marshal(&shard)
		if err != nil {
			t.Fatal(err)
		}
		var back Aggregate
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, shard) {
			t.Fatal("aggregate does not survive the JSON round-trip")
		}
		pieces.Merge(&back)
	}
	if !reflect.DeepEqual(pieces, whole) {
		t.Fatalf("merged shards != whole:\n%+v\n%+v", pieces, whole)
	}
}

// Acceptance: a 10^6-entry corpus (race builds: reduced, see
// size_race_test.go) classifies end-to-end with byte-identical aggregates
// across workers 1/4/8 and cold/warm cache, warm runs executing zero shard
// bodies.
func TestMillionEntryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("10^6-entry end-to-end run skipped in -short mode")
	}
	spec := DefaultSpec(bigCorpusN)
	seed := int64(77)
	nShards := NumShards(spec.N)

	var ref *Aggregate
	var refText string
	for _, workers := range []int{1, 4, 8} {
		store := cas.NewMemStore()
		cold, coldStats, err := ClassifyAll(testEnv(workers, store), NewGenerator(spec, seed))
		if err != nil {
			t.Fatal(err)
		}
		if coldStats.ShardsExecuted != nShards || coldStats.ShardsCached != 0 {
			t.Fatalf("workers=%d cold stats = %+v, want %d executed", workers, coldStats, nShards)
		}
		warm, warmStats, err := ClassifyAll(testEnv(workers, store), NewGenerator(spec, seed))
		if err != nil {
			t.Fatal(err)
		}
		if warmStats.ShardsExecuted != 0 || warmStats.ShardsCached != nShards {
			t.Fatalf("workers=%d warm stats = %+v, want %d cached", workers, warmStats, nShards)
		}
		if !reflect.DeepEqual(*warm, *cold) {
			t.Fatalf("workers=%d warm aggregate differs from cold", workers)
		}
		text := cold.RenderClassify() + cold.RenderStats()
		if ref == nil {
			ref, refText = cold, text
			continue
		}
		if !reflect.DeepEqual(*cold, *ref) || text != refText {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
	}
	if ref.Total != spec.N {
		t.Fatalf("classified %d entries, want %d", ref.Total, spec.N)
	}
}

// The registered experiments run under the exp contract: cold executes and
// caches (result-level and shard-level), warm serves both levels, and the
// two experiments share the shard cache through the common corpus stream.
func TestCorpusExperiments(t *testing.T) {
	store := cas.NewMemStore()
	env := testEnv(4, store)
	reg := exp.NewRegistry()
	for _, e := range Experiments() {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	classify, err := reg.Run(ctx, env, "corpus/classify")
	if err != nil {
		t.Fatal(err)
	}
	if classify.Provenance.Cached {
		t.Fatal("cold corpus/classify served from cache")
	}
	nShards := NumShards(RegistryN)
	if got := env.Metrics.Counter("corpus.shards.exec"); got != int64(nShards) {
		t.Fatalf("cold classify executed %d shards, want %d", got, nShards)
	}
	if classify.Metrics["accuracy"] <= 0.5 || classify.Metrics["accuracy"] > 1 {
		t.Fatalf("accuracy metric = %g", classify.Metrics["accuracy"])
	}
	if !strings.Contains(classify.Artifacts["classification"], "accuracy:") {
		t.Fatalf("classification artifact:\n%s", classify.Artifacts["classification"])
	}

	// corpus/stats shares the shard cache: zero additional executions.
	stats, err := reg.Run(ctx, env, "corpus/stats")
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Metrics.Counter("corpus.shards.exec"); got != int64(nShards) {
		t.Fatalf("corpus/stats re-executed shards (exec=%d)", got)
	}
	if stats.Metrics["entries"] != float64(RegistryN) {
		t.Fatalf("stats entries metric = %g", stats.Metrics["entries"])
	}

	// Warm registry runs execute no bodies at all.
	warmEnv := testEnv(1, store)
	warm, err := reg.Run(ctx, warmEnv, "corpus/classify")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Provenance.Cached {
		t.Fatal("warm corpus/classify not served from the result cache")
	}
	if warm.Artifacts["classification"] != classify.Artifacts["classification"] {
		t.Fatal("warm artifact bytes differ from cold")
	}
}

// Experiment artifacts are byte-identical across worker counts without any
// store — the property regress re-checks from the sealed goldens.
func TestCorpusExperimentWorkerInvariance(t *testing.T) {
	reg := exp.NewRegistry()
	for _, e := range Experiments() {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"corpus/classify", "corpus/stats"} {
		var ref string
		for _, workers := range []int{1, 4, 8} {
			res, err := reg.Run(context.Background(), testEnv(workers, nil), name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				ref = string(data)
			} else if string(data) != ref {
				t.Fatalf("%s result differs at workers=%d", name, workers)
			}
		}
	}
}

// Empty and tiny corpora behave.
func TestClassifyAllEdgeSizes(t *testing.T) {
	agg, stats, err := ClassifyAll(testEnv(4, nil), NewGenerator(DefaultSpec(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Total != 0 || stats.ShardsExecuted != 0 {
		t.Fatalf("empty corpus: agg=%+v stats=%+v", agg, stats)
	}
	if !strings.Contains(agg.RenderStats(), "0 entries") {
		t.Fatal("empty render broken")
	}
	one, _, err := ClassifyAll(testEnv(4, nil), NewGenerator(DefaultSpec(1), 1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Total != 1 || one.MinLen == 0 || one.MinLen != one.MaxLen {
		t.Fatalf("single-entry aggregate: %+v", one)
	}
}
